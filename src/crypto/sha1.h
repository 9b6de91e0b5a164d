// SHA-1 (FIPS 180-1), implemented from the specification.
//
// Needed for HMAC-SHA1, one of the paper's Table 4 authentication
// candidates. SHA-1 is deprecated for collision resistance; it is included
// here to reproduce the 2005 comparison, not as a recommendation.
//
// Sha1 compresses with SHA-NI when the CPU reports it (crypto/cpu_features.h)
// and with the portable kernel otherwise; both produce the same digest.
// Sha1Portable always uses the portable kernel.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace ibsec::crypto {

class Sha1 {
 public:
  static constexpr std::size_t kDigestSize = 20;
  static constexpr std::size_t kBlockSize = 64;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  /// Uses the SHA-NI kernel when the CPU has it, the portable one otherwise.
  Sha1();

  void reset();
  void update(std::span<const std::uint8_t> data);
  Digest finalize();

  static Digest hash(std::span<const std::uint8_t> data);

 protected:
  /// Absorbs `count` whole 64-byte blocks into `state`.
  using Kernel = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                          std::size_t count);
  explicit Sha1(Kernel kernel) : kernel_(kernel) { reset(); }

 private:
  Kernel kernel_;
  std::array<std::uint32_t, 5> state_{};
  std::array<std::uint8_t, kBlockSize> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// SHA-1 on the portable kernel whatever the CPU reports: the software
/// algorithm Table 4 times (as Hmac<Sha1Portable>), and the tests' reference
/// for the SHA-NI kernel.
class Sha1Portable : public Sha1 {
 public:
  Sha1Portable();

  static Digest hash(std::span<const std::uint8_t> data);
};

}  // namespace ibsec::crypto
