// PCLMULQDQ folding shared by the two reflected CRCs: CRC-32 (the ICRC,
// generator 0x04C11DB7) and CRC-16-IBA (the VCRC, generator 0x100B).
//
// The bulk of a buffer is folded 64 bytes at a time with four 128-bit
// accumulators (after Intel's "Fast CRC Computation for Generic Polynomials
// Using PCLMULQDQ"). Folding keeps the buffer's polynomial unchanged modulo
// the generator G, so the folded 16 bytes have the same CRC from state 0 as
// the prefix they replace had from the caller's state. The CRC's own table
// kernel then reduces those 16 bytes and finishes the tail, which is why one
// kernel serves both widths and no Barrett reduction is needed.
//
// Lanes hold reflected polynomials: bit i of a 128-bit lane (bytes loaded
// little-endian) is the coefficient of x^(127-i), and bit i of a 64-bit key
// is the coefficient of x^(63-i). A carry-less product of two such values
// then carries an extra factor of x, which the keys absorb.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "crypto/cpu_features.h"

namespace ibsec::crypto {

/// Multipliers that advance a 128-bit lane by D bits, for D = 128, 256,
/// 384, 512 (index D/128 - 1): {x^(D+63) mod G, x^(D-1) mod G}, applied to
/// the lane's low and high 64-bit halves.
struct FoldKeys {
  std::array<std::array<std::uint64_t, 2>, 4> by_distance{};
};

/// x^n mod G, bit-reflected into a 64-bit key. `poly` holds G's
/// coefficients below x^width (normal form, e.g. 0x04C11DB7).
constexpr std::uint64_t reflected_xpow_mod(int n, std::uint32_t poly,
                                           int width) {
  const std::uint64_t top = std::uint64_t{1} << width;
  std::uint64_t r = 1;
  for (int i = 0; i < n; ++i) {
    r <<= 1;
    if ((r & top) != 0) r ^= top | poly;
  }
  std::uint64_t reflected = 0;
  for (int j = 0; j < width; ++j) {
    if (((r >> j) & 1u) != 0) reflected |= std::uint64_t{1} << (63 - j);
  }
  return reflected;
}

constexpr FoldKeys make_fold_keys(std::uint32_t poly, int width) {
  FoldKeys keys;
  for (int i = 0; i < 4; ++i) {
    const int d = 128 * (i + 1);
    keys.by_distance[static_cast<std::size_t>(i)] = {
        reflected_xpow_mod(d + 63, poly, width),
        reflected_xpow_mod(d - 1, poly, width)};
  }
  return keys;
}

/// Shortest buffer the folding kernel takes: four accumulators' worth.
inline constexpr std::size_t kFoldMinBytes = 64;

#if defined(__x86_64__)
/// Folds the longest 16-byte-multiple prefix of `data` (at least
/// kFoldMinBytes long), read from CRC register `state`, into `out`: the CRC
/// of `out` from state 0 equals the CRC of that prefix from `state`.
/// Returns the prefix length. Needs cpu_features().pclmulqdq.
std::size_t fold_clmul(std::uint32_t state, std::span<const std::uint8_t> data,
                       const FoldKeys& keys, std::uint8_t (&out)[16]);
#endif

/// Advances a reflected CRC register over `data`: folds the bulk with
/// PCLMULQDQ when the CPU has it, and runs `portable` (the CRC's table
/// kernel, `State portable(State, span)`) on the folded block and the tail,
/// or on everything when it does not.
template <typename State, typename Portable>
State crc_update(State state, std::span<const std::uint8_t> data,
                 [[maybe_unused]] const FoldKeys& keys, Portable portable) {
#if defined(__x86_64__)
  if (data.size() >= kFoldMinBytes && cpu_features().pclmulqdq) {
    std::uint8_t folded[16];
    const std::size_t used = fold_clmul(state, data, keys, folded);
    state = portable(State{0}, std::span<const std::uint8_t>(folded));
    data = data.subspan(used);
  }
#endif
  return portable(state, data);
}

}  // namespace ibsec::crypto
