#include "crypto/sha1.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "crypto/cpu_features.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ibsec::crypto {
namespace {

std::uint32_t rotl(std::uint32_t x, int s) {
  return (x << s) | (x >> (32 - s));
}

std::uint32_t load_be32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) << 24 |
         static_cast<std::uint32_t>(p[1]) << 16 |
         static_cast<std::uint32_t>(p[2]) << 8 |
         static_cast<std::uint32_t>(p[3]);
}

void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

void compress_portable(std::uint32_t* state, const std::uint8_t* blocks,
                       std::size_t count) {
  for (; count > 0; --count, blocks += Sha1::kBlockSize) {
    std::uint32_t w[80];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(blocks + 4 * i);
    for (int i = 16; i < 80; ++i) {
      w[i] = rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
                  e = state[4];
    for (int i = 0; i < 80; ++i) {
      std::uint32_t f, k;
      if (i < 20) {
        f = (b & c) | (~b & d);
        k = 0x5A827999u;
      } else if (i < 40) {
        f = b ^ c ^ d;
        k = 0x6ED9EBA1u;
      } else if (i < 60) {
        f = (b & c) | (b & d) | (c & d);
        k = 0x8F1BBCDCu;
      } else {
        f = b ^ c ^ d;
        k = 0xCA62C1D6u;
      }
      const std::uint32_t temp = rotl(a, 5) + f + e + k + w[i];
      e = d;
      d = c;
      c = rotl(b, 30);
      b = a;
      a = temp;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
  }
}

#if defined(__x86_64__)

// SHA-NI keeps A..D in one register (A in the top lane) and E in the top
// lane of another, and message words W[4g..4g+3] in msg[g % 4] (W[4g] in
// the top lane). Round group g (rounds 4g..4g+3) is one sha1rnds4 with
// function g / 5; the E operand for group g is sha1nexte of A as it stood
// before group g - 1, which e[] alternates between its two slots.
template <int G>
[[gnu::target("sha,ssse3"), gnu::always_inline]] inline void sha1_group(
    __m128i& abcd, __m128i (&e)[2], __m128i (&msg)[4]) {
  if constexpr (G >= 4) {
    // W[t] = rotl1(W[t-3] ^ W[t-8] ^ W[t-14] ^ W[t-16]) for four t at once.
    msg[G % 4] = _mm_sha1msg2_epu32(
        _mm_xor_si128(_mm_sha1msg1_epu32(msg[G % 4], msg[(G + 1) % 4]),
                      msg[(G + 2) % 4]),
        msg[(G + 3) % 4]);
  }
  if constexpr (G == 0) {
    e[0] = _mm_add_epi32(e[0], msg[0]);
  } else {
    e[G % 2] = _mm_sha1nexte_epu32(e[G % 2], msg[G % 4]);
  }
  e[(G + 1) % 2] = abcd;
  abcd = _mm_sha1rnds4_epu32(abcd, e[G % 2], G / 5);
}

template <int... G>
[[gnu::target("sha,ssse3"), gnu::always_inline]] inline void sha1_rounds(
    std::integer_sequence<int, G...>, __m128i& abcd, __m128i (&e)[2],
    __m128i (&msg)[4]) {
  (sha1_group<G>(abcd, e, msg), ...);
}

[[gnu::target("sha,ssse3")]] void compress_shani(std::uint32_t* state,
                                                 const std::uint8_t* blocks,
                                                 std::size_t count) {
  // Big-endian words, W[0] in the top lane.
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0001020304050607LL, 0x08090A0B0C0D0E0FLL);
  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0x1B);
  __m128i e_in = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
  for (; count > 0; --count, blocks += Sha1::kBlockSize) {
    const __m128i abcd_in = abcd;
    __m128i msg[4];
    for (int i = 0; i < 4; ++i) {
      msg[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)),
          kByteSwap);
    }
    __m128i e[2] = {e_in, _mm_setzero_si128()};
    sha1_rounds(std::make_integer_sequence<int, 20>{}, abcd, e, msg);
    // e[0] holds A from before the last group: its rotl30 is the new E.
    e_in = _mm_sha1nexte_epu32(e[0], e_in);
    abcd = _mm_add_epi32(abcd, abcd_in);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_shuffle_epi32(abcd, 0x1B));
  state[4] = static_cast<std::uint32_t>(
      _mm_cvtsi128_si32(_mm_srli_si128(e_in, 12)));
}

#endif  // __x86_64__

}  // namespace

Sha1::Sha1() : Sha1(compress_portable) {
#if defined(__x86_64__)
  if (cpu_features().sha_ni) kernel_ = compress_shani;
#endif
}

Sha1Portable::Sha1Portable() : Sha1(compress_portable) {}

void Sha1::reset() {
  state_ = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
  buffered_ = 0;
  total_bytes_ = 0;
}

void Sha1::update(std::span<const std::uint8_t> data) {
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(kBlockSize - buffered_, data.size());
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == kBlockSize) {
      kernel_(state_.data(), buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  const std::size_t blocks = (data.size() - offset) / kBlockSize;
  if (blocks > 0) {
    kernel_(state_.data(), data.data() + offset, blocks);
    offset += blocks * kBlockSize;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

Sha1::Digest Sha1::finalize() {
  const std::uint64_t bit_len = total_bytes_ * 8;
  static constexpr std::uint8_t kPad[kBlockSize] = {0x80};
  const std::size_t pad_len =
      (buffered_ < 56) ? (56 - buffered_) : (120 - buffered_);
  update({kPad, pad_len});
  std::uint8_t len_bytes[8];
  store_be32(len_bytes, static_cast<std::uint32_t>(bit_len >> 32));
  store_be32(len_bytes + 4, static_cast<std::uint32_t>(bit_len));
  update({len_bytes, 8});
  Digest digest;
  for (int i = 0; i < 5; ++i) {
    store_be32(digest.data() + 4 * i, state_[static_cast<std::size_t>(i)]);
  }
  return digest;
}

Sha1::Digest Sha1::hash(std::span<const std::uint8_t> data) {
  Sha1 sha;
  sha.update(data);
  return sha.finalize();
}

Sha1::Digest Sha1Portable::hash(std::span<const std::uint8_t> data) {
  Sha1Portable sha;
  sha.update(data);
  return sha.finalize();
}

}  // namespace ibsec::crypto
