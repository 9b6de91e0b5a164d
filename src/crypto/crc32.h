// CRC-32 (IEEE 802.3 polynomial 0x04C11DB7, reflected form 0xEDB88320).
//
// This is the polynomial the InfiniBand Architecture uses for the Invariant
// CRC (ICRC). crc32() and Crc32 run the fastest kernel the CPU supports:
// PCLMULQDQ folding (crypto/crc_fold.h) for the bulk of buffers of 64 bytes
// or more, the portable slice-by-8 table for the rest and on hosts without
// the instruction. Both return the same value. crc32_portable() is the
// slice-by-8 kernel alone, and crc32_reference() a byte-at-a-time version
// for differential tests. The paper's Table 4 lists CRC-32 as the
// throughput baseline the MAC candidates are compared against.
#pragma once

#include <cstdint>
#include <span>

namespace ibsec::crypto {

/// Incremental CRC-32 with the standard init/xorout (0xFFFFFFFF both).
/// crc32("123456789") == 0xCBF43926.
class Crc32 {
 public:
  Crc32() = default;

  void update(std::span<const std::uint8_t> data);
  /// Finalized value; the object may keep absorbing afterwards (value() is a
  /// pure function of the bytes seen so far).
  std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }
  void reset() { state_ = 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

/// One-shot convenience.
std::uint32_t crc32(std::span<const std::uint8_t> data);

/// The slice-by-8 kernel whatever the CPU reports: the software CRC that
/// Table 4 times, and the tests' reference for the folding kernel.
std::uint32_t crc32_portable(std::span<const std::uint8_t> data);

/// Byte-at-a-time reference implementation, kept for differential testing.
std::uint32_t crc32_reference(std::span<const std::uint8_t> data);

}  // namespace ibsec::crypto
