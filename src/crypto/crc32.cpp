#include "crypto/crc32.h"

#include <array>

#include "crypto/crc_fold.h"

namespace ibsec::crypto {
namespace {

constexpr std::uint32_t kPolyReflected = 0xEDB88320u;
constexpr FoldKeys kFoldKeys = make_fold_keys(0x04C11DB7u, 32);

struct Tables {
  // t[k][b]: CRC contribution of byte b positioned k bytes before the end of
  // an 8-byte group (slice-by-8).
  std::array<std::array<std::uint32_t, 256>, 8> t;
};

constexpr Tables make_tables() {
  Tables tables{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t crc = b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPolyReflected : 0u);
    }
    tables.t[0][b] = crc;
  }
  for (int k = 1; k < 8; ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      const std::uint32_t prev = tables.t[k - 1][b];
      tables.t[k][b] = (prev >> 8) ^ tables.t[0][prev & 0xFFu];
    }
  }
  return tables;
}

const Tables kTables = make_tables();

std::uint32_t update_slice8(std::uint32_t crc,
                            std::span<const std::uint8_t> data) {
  const auto& t = kTables.t;
  std::size_t i = 0;
  const std::size_t n = data.size();
  for (; i + 8 <= n; i += 8) {
    // Fold eight bytes at once. Loads are byte-wise so alignment and host
    // endianness are irrelevant.
    const std::uint32_t lo = crc ^ (static_cast<std::uint32_t>(data[i]) |
                                    static_cast<std::uint32_t>(data[i + 1]) << 8 |
                                    static_cast<std::uint32_t>(data[i + 2]) << 16 |
                                    static_cast<std::uint32_t>(data[i + 3]) << 24);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][data[i + 4]] ^ t[2][data[i + 5]] ^
          t[1][data[i + 6]] ^ t[0][data[i + 7]];
  }
  for (; i < n; ++i) {
    crc = (crc >> 8) ^ t[0][(crc ^ data[i]) & 0xFFu];
  }
  return crc;
}

std::uint32_t advance(std::uint32_t crc, std::span<const std::uint8_t> data) {
  return crc_update(crc, data, kFoldKeys, update_slice8);
}

}  // namespace

void Crc32::update(std::span<const std::uint8_t> data) {
  state_ = advance(state_, data);
}

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  return advance(0xFFFFFFFFu, data) ^ 0xFFFFFFFFu;
}

std::uint32_t crc32_portable(std::span<const std::uint8_t> data) {
  return update_slice8(0xFFFFFFFFu, data) ^ 0xFFFFFFFFu;
}

std::uint32_t crc32_reference(std::span<const std::uint8_t> data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPolyReflected : 0u);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace ibsec::crypto
