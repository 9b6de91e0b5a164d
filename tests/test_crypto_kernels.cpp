// Differential tests for the crypto kernel seam (crypto/cpu_features.h):
// each hardware kernel (PCLMULQDQ CRC folding, SHA-NI compression) against
// the portable kernel and the bit-at-a-time reference.
//
// These are the proof that the kernels are bit-exact. MAC sign and verify,
// and VCRC write and check, all run through the same kernel, so a kernel
// that is wrong in a consistent way passes every end-to-end check and every
// pinned digest. On a host whose CPU lacks the instruction the hardware
// cases skip with a message naming it; the portable cases always run.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/cpu_features.h"
#include "crypto/crc16.h"
#include "crypto/crc32.h"
#include "crypto/crc_fold.h"
#include "crypto/hmac.h"
#include "crypto/sha1.h"

namespace ibsec::crypto {
namespace {

#define REQUIRE_CPU_FEATURE(flag, name)                                  \
  if (!cpu_features().flag)                                              \
  GTEST_SKIP() << "CPUID reports no " name                               \
               << ": only the portable kernel runs on this host"

constexpr std::size_t kMaxLen = 4096;
constexpr std::size_t kMaxOffset = 15;

// Random bytes with room for every (offset, length) pair the tests use.
std::vector<std::uint8_t> random_buffer(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> buf(kMaxLen + kMaxOffset + 1);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u32());
  return buf;
}

// Feeds `data` to an incremental API in one to four pieces cut at random
// points, so later pieces start from a non-initial state.
template <typename Incremental>
void update_in_random_pieces(Incremental& inc,
                             std::span<const std::uint8_t> data, Rng& rng) {
  std::vector<std::size_t> cuts = {0, data.size()};
  for (std::uint64_t c = rng.uniform(4); c > 0; --c) {
    cuts.push_back(rng.uniform(data.size() + 1));
  }
  std::sort(cuts.begin(), cuts.end());
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    inc.update(data.subspan(cuts[i], cuts[i + 1] - cuts[i]));
  }
}

// Lengths either side of each folding step: the 64-byte minimum, one more
// 64-byte group, each 16-byte single fold, and a full page.
constexpr std::size_t kFoldBoundaries[] = {0,   1,   15,  16,  63,  64,
                                           65,  79,  80,  127, 128, 191,
                                           192, 255, 256, 4096};

// --- CRC fold keys ----------------------------------------------------------

TEST(CrcFoldKeys, SmallPowersAreTheGeneratorItself) {
  // x^0 is the top bit of a reflected key, and x^width mod G is G's low
  // coefficients, whose reflection is each CRC's table polynomial.
  EXPECT_EQ(reflected_xpow_mod(0, 0x04C11DB7u, 32), std::uint64_t{1} << 63);
  EXPECT_EQ(reflected_xpow_mod(32, 0x04C11DB7u, 32),
            std::uint64_t{0xEDB88320u} << 32);
  EXPECT_EQ(reflected_xpow_mod(16, 0x100Bu, 16), std::uint64_t{0xD008u} << 48);
}

// --- CRC-32 (ICRC) ----------------------------------------------------------

TEST(ClmulCrc32, RandomLengthsAndOffsetsMatchPortableAndReference) {
  REQUIRE_CPU_FEATURE(pclmulqdq, "PCLMULQDQ");
  const auto buf = random_buffer(0xC1);
  Rng rng(0xC2);
  for (int trial = 0; trial < 1000; ++trial) {
    const std::size_t offset = rng.uniform(kMaxOffset + 1);
    const std::size_t len = rng.uniform(kMaxLen + 1);
    const std::span<const std::uint8_t> data(buf.data() + offset, len);
    const std::uint32_t expect = crc32_reference(data);
    ASSERT_EQ(crc32(data), expect) << "len=" << len << " offset=" << offset;
    ASSERT_EQ(crc32_portable(data), expect) << "len=" << len;
  }
}

TEST(ClmulCrc32, FoldBoundariesAtEveryOffset) {
  REQUIRE_CPU_FEATURE(pclmulqdq, "PCLMULQDQ");
  for (std::uint8_t fill : {std::uint8_t{0x00}, std::uint8_t{0xFF}}) {
    const std::vector<std::uint8_t> flat(kMaxLen + kMaxOffset + 1, fill);
    const auto random = random_buffer(0xC3);
    for (const auto* buf : {&flat, &random}) {
      for (std::size_t len : kFoldBoundaries) {
        for (std::size_t offset = 0; offset <= kMaxOffset; ++offset) {
          const std::span<const std::uint8_t> data(buf->data() + offset, len);
          ASSERT_EQ(crc32(data), crc32_reference(data))
              << "len=" << len << " offset=" << offset
              << " fill=" << int{fill};
        }
      }
    }
  }
}

TEST(ClmulCrc32, RandomSplitsThroughIncrementalApi) {
  REQUIRE_CPU_FEATURE(pclmulqdq, "PCLMULQDQ");
  const auto buf = random_buffer(0xC4);
  Rng rng(0xC5);
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t offset = rng.uniform(kMaxOffset + 1);
    const std::size_t len = rng.uniform(kMaxLen + 1);
    const std::span<const std::uint8_t> data(buf.data() + offset, len);
    Crc32 inc;
    update_in_random_pieces(inc, data, rng);
    ASSERT_EQ(inc.value(), crc32_reference(data)) << "len=" << len;
  }
}

// --- CRC-16-IBA (VCRC) ------------------------------------------------------

TEST(ClmulCrc16, RandomLengthsAndOffsetsMatchPortableAndReference) {
  REQUIRE_CPU_FEATURE(pclmulqdq, "PCLMULQDQ");
  const auto buf = random_buffer(0x16A);
  Rng rng(0x16B);
  for (int trial = 0; trial < 1000; ++trial) {
    const std::size_t offset = rng.uniform(kMaxOffset + 1);
    const std::size_t len = rng.uniform(kMaxLen + 1);
    const std::span<const std::uint8_t> data(buf.data() + offset, len);
    const std::uint16_t expect = crc16_iba_reference(data);
    ASSERT_EQ(crc16_iba(data), expect)
        << "len=" << len << " offset=" << offset;
    ASSERT_EQ(crc16_iba_portable(data), expect) << "len=" << len;
  }
}

TEST(ClmulCrc16, FoldBoundariesAtEveryOffset) {
  REQUIRE_CPU_FEATURE(pclmulqdq, "PCLMULQDQ");
  for (std::uint8_t fill : {std::uint8_t{0x00}, std::uint8_t{0xFF}}) {
    const std::vector<std::uint8_t> flat(kMaxLen + kMaxOffset + 1, fill);
    const auto random = random_buffer(0x16C);
    for (const auto* buf : {&flat, &random}) {
      for (std::size_t len : kFoldBoundaries) {
        for (std::size_t offset = 0; offset <= kMaxOffset; ++offset) {
          const std::span<const std::uint8_t> data(buf->data() + offset, len);
          ASSERT_EQ(crc16_iba(data), crc16_iba_reference(data))
              << "len=" << len << " offset=" << offset
              << " fill=" << int{fill};
        }
      }
    }
  }
}

TEST(ClmulCrc16, RandomSplitsThroughIncrementalApi) {
  REQUIRE_CPU_FEATURE(pclmulqdq, "PCLMULQDQ");
  const auto buf = random_buffer(0x16D);
  Rng rng(0x16E);
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t offset = rng.uniform(kMaxOffset + 1);
    const std::size_t len = rng.uniform(kMaxLen + 1);
    const std::span<const std::uint8_t> data(buf.data() + offset, len);
    Crc16Iba inc;
    update_in_random_pieces(inc, data, rng);
    ASSERT_EQ(inc.value(), crc16_iba_reference(data)) << "len=" << len;
  }
}

// --- SHA-1 ------------------------------------------------------------------

struct Sha1Fips {
  std::string message;
  const char* digest;
};

// FIPS 180-1 appendix vectors, the last one the million-'a' message.
std::vector<Sha1Fips> fips_vectors() {
  return {{"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
          {"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
          {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
           "84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
          {std::string(1'000'000, 'a'),
           "34aa973cd4c4daa4f61eeb2bdbad27316534016f"}};
}

template <typename Hash>
void expect_fips_vectors() {
  for (const auto& [message, digest] : fips_vectors()) {
    EXPECT_EQ(to_hex(Hash::hash(ascii_bytes(message))), digest)
        << message.size() << "-byte message";
    // The same message in 1000-byte pieces, as the FIPS text feeds it.
    Hash streamed;
    const auto bytes = ascii_bytes(message);
    for (std::size_t at = 0; at < bytes.size(); at += 1000) {
      const std::size_t n = std::min<std::size_t>(1000, bytes.size() - at);
      streamed.update(std::span(bytes).subspan(at, n));
    }
    EXPECT_EQ(to_hex(streamed.finalize()), digest)
        << message.size() << "-byte message, streamed";
  }
}

TEST(PortableSha1, FipsVectors) { expect_fips_vectors<Sha1Portable>(); }

TEST(ShaNiSha1, FipsVectors) {
  REQUIRE_CPU_FEATURE(sha_ni, "SHA-NI");
  expect_fips_vectors<Sha1>();
}

TEST(ShaNiSha1, RandomLengthsOffsetsAndSplitsMatchPortable) {
  REQUIRE_CPU_FEATURE(sha_ni, "SHA-NI");
  const auto buf = random_buffer(0x5A1);
  Rng rng(0x5A2);
  for (int trial = 0; trial < 1000; ++trial) {
    const std::size_t offset = rng.uniform(kMaxOffset + 1);
    const std::size_t len = rng.uniform(kMaxLen + 1);
    const std::span<const std::uint8_t> data(buf.data() + offset, len);
    const auto expect = Sha1Portable::hash(data);
    ASSERT_EQ(Sha1::hash(data), expect) << "len=" << len;
    Sha1 inc;
    update_in_random_pieces(inc, data, rng);
    ASSERT_EQ(inc.finalize(), expect) << "len=" << len;
  }
}

TEST(ShaNiSha1, HmacMatchesPortableHmac) {
  REQUIRE_CPU_FEATURE(sha_ni, "SHA-NI");
  const auto buf = random_buffer(0x5A3);
  Rng rng(0x5A4);
  for (int trial = 0; trial < 200; ++trial) {
    // Keys past the 64-byte block are hashed first (Sha1Portable::hash).
    const std::span<const std::uint8_t> key(buf.data(), rng.uniform(100));
    const std::span<const std::uint8_t> msg(
        buf.data() + rng.uniform(kMaxOffset + 1), rng.uniform(2048));
    ASSERT_EQ(HmacSha1::mac(key, msg), Hmac<Sha1Portable>::mac(key, msg))
        << "key=" << key.size() << " msg=" << msg.size();
  }
}

}  // namespace
}  // namespace ibsec::crypto
