// CRC-16 with the InfiniBand VCRC polynomial.
//
// IBA's Variant CRC covers the whole packet from LRH to the byte before the
// VCRC. The sender writes it (Packet::finalize, or refresh_vcrc after
// AuthEngine::sign rewrites the ICRC) and every switch hop and the receiving
// CA verify it. The spec's generator is x^16 + x^12 + x^3 + x + 1 (0x100B),
// CRC-16-IBA, init 0xFFFF, reflected, final XOR 0xFFFF.
//
// crc16_iba() and Crc16Iba run the fastest kernel the CPU supports, as
// crc32() does: PCLMULQDQ folding for the bulk of long buffers, the portable
// slice-by-8 table otherwise. Both return the same value.
#pragma once

#include <cstdint>
#include <span>

namespace ibsec::crypto {

/// One-shot VCRC over a byte range.
std::uint16_t crc16_iba(std::span<const std::uint8_t> data);

/// Incremental VCRC: feed the packet body in pieces (headers from stack
/// scratch, payload in place) and read the same value crc16_iba() returns
/// over the concatenation — no materialized buffer needed.
class Crc16Iba {
 public:
  void update(std::span<const std::uint8_t> data);
  std::uint16_t value() const {
    return static_cast<std::uint16_t>(state_ ^ 0xFFFFu);
  }
  void reset() { state_ = 0xFFFFu; }

 private:
  std::uint16_t state_ = 0xFFFFu;
};

/// The slice-by-8 kernel whatever the CPU reports: the tests' reference for
/// the folding kernel.
std::uint16_t crc16_iba_portable(std::span<const std::uint8_t> data);

/// Bit-at-a-time reference implementation for differential tests.
std::uint16_t crc16_iba_reference(std::span<const std::uint8_t> data);

}  // namespace ibsec::crypto
