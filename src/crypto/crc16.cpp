#include "crypto/crc16.h"

#include <array>

#include "crypto/crc_fold.h"

namespace ibsec::crypto {
namespace {

// 0x100B reflected (bit-reversed over 16 bits) = 0xD008.
constexpr std::uint16_t kPolyReflected = 0xD008u;
constexpr FoldKeys kFoldKeys = make_fold_keys(0x100Bu, 16);

struct Tables {
  // t[k][b]: CRC contribution of byte b positioned k bytes before the end of
  // an 8-byte group (slice-by-8, same layout as crc32.cpp). Only t[7] and
  // t[6] see the 16-bit running state; bytes past the state width fold in as
  // pure data.
  std::array<std::array<std::uint16_t, 256>, 8> t;
};

constexpr Tables make_tables() {
  Tables tables{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint16_t crc = static_cast<std::uint16_t>(b);
    for (int bit = 0; bit < 8; ++bit) {
      crc = static_cast<std::uint16_t>((crc >> 1) ^
                                       ((crc & 1u) ? kPolyReflected : 0u));
    }
    tables.t[0][b] = crc;
  }
  for (int k = 1; k < 8; ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      const std::uint16_t prev = tables.t[k - 1][b];
      tables.t[k][b] =
          static_cast<std::uint16_t>((prev >> 8) ^ tables.t[0][prev & 0xFFu]);
    }
  }
  return tables;
}

const Tables kTables = make_tables();

std::uint16_t update_slice8(std::uint16_t crc,
                            std::span<const std::uint8_t> data) {
  const auto& t = kTables.t;
  std::size_t i = 0;
  const std::size_t n = data.size();
  for (; i + 8 <= n; i += 8) {
    // Fold eight bytes at once. Loads are byte-wise so alignment and host
    // endianness are irrelevant.
    const std::uint16_t lo = static_cast<std::uint16_t>(
        crc ^ (static_cast<std::uint16_t>(data[i]) |
               static_cast<std::uint16_t>(data[i + 1]) << 8));
    crc = static_cast<std::uint16_t>(
        t[7][lo & 0xFF] ^ t[6][lo >> 8] ^ t[5][data[i + 2]] ^
        t[4][data[i + 3]] ^ t[3][data[i + 4]] ^ t[2][data[i + 5]] ^
        t[1][data[i + 6]] ^ t[0][data[i + 7]]);
  }
  for (; i < n; ++i) {
    crc = static_cast<std::uint16_t>((crc >> 8) ^
                                     t[0][(crc ^ data[i]) & 0xFFu]);
  }
  return crc;
}

std::uint16_t advance(std::uint16_t crc, std::span<const std::uint8_t> data) {
  return crc_update(crc, data, kFoldKeys, update_slice8);
}

}  // namespace

std::uint16_t crc16_iba(std::span<const std::uint8_t> data) {
  return static_cast<std::uint16_t>(advance(0xFFFFu, data) ^ 0xFFFFu);
}

std::uint16_t crc16_iba_portable(std::span<const std::uint8_t> data) {
  return static_cast<std::uint16_t>(update_slice8(0xFFFFu, data) ^ 0xFFFFu);
}

void Crc16Iba::update(std::span<const std::uint8_t> data) {
  state_ = advance(state_, data);
}

std::uint16_t crc16_iba_reference(std::span<const std::uint8_t> data) {
  std::uint16_t crc = 0xFFFFu;
  for (std::uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = static_cast<std::uint16_t>((crc >> 1) ^
                                       ((crc & 1u) ? kPolyReflected : 0u));
    }
  }
  return static_cast<std::uint16_t>(crc ^ 0xFFFFu);
}

}  // namespace ibsec::crypto
