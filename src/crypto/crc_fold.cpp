#include "crypto/crc_fold.h"

#if defined(__x86_64__)
#include <immintrin.h>

namespace ibsec::crypto {
namespace {

inline __m128i load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

inline __m128i load_key(const FoldKeys& keys, int distance_blocks) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(
      keys.by_distance[static_cast<std::size_t>(distance_blocks - 1)].data()));
}

/// Lane x advanced by the key's distance: lo * x^(D+63) ^ hi * x^(D-1).
[[gnu::target("pclmul")]] inline __m128i fold(__m128i x, __m128i key) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, key, 0x00),
                       _mm_clmulepi64_si128(x, key, 0x11));
}

}  // namespace

[[gnu::target("pclmul")]] std::size_t fold_clmul(
    std::uint32_t state, std::span<const std::uint8_t> data,
    const FoldKeys& keys, std::uint8_t (&out)[16]) {
  const std::uint8_t* p = data.data();
  std::size_t left = data.size();
  // A reflected register's bytes line up with the first message bytes, so
  // folding it into them lets the rest run from state 0.
  __m128i x0 = _mm_xor_si128(load(p),
                             _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  left -= 64;

  const __m128i k512 = load_key(keys, 4);
  while (left >= 64) {
    x0 = _mm_xor_si128(fold(x0, k512), load(p));
    x1 = _mm_xor_si128(fold(x1, k512), load(p + 16));
    x2 = _mm_xor_si128(fold(x2, k512), load(p + 32));
    x3 = _mm_xor_si128(fold(x3, k512), load(p + 48));
    p += 64;
    left -= 64;
  }

  const __m128i k128 = load_key(keys, 1);
  x3 = _mm_xor_si128(x3, fold(x0, load_key(keys, 3)));
  x3 = _mm_xor_si128(x3, fold(x1, load_key(keys, 2)));
  x3 = _mm_xor_si128(x3, fold(x2, k128));
  while (left >= 16) {
    x3 = _mm_xor_si128(fold(x3, k128), load(p));
    p += 16;
    left -= 16;
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), x3);
  return data.size() - left;
}

}  // namespace ibsec::crypto

#endif  // __x86_64__
