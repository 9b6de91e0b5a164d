// Fixed-capacity unsigned integers for the RSA key-distribution path.
//
// The paper's key-management schemes assume the Subnet Manager can encrypt a
// partition/QP secret to a Channel Adapter's public key ("we assume SM knows
// public keys of all CAs"). We build that primitive from scratch: this
// module supplies the non-negative big-integer arithmetic that rsa.{h,cpp}
// composes into keygen and encryption. Every Channel Adapter generates its
// keypair when it is constructed, so this arithmetic is most of scenario
// setup, and none of it touches the heap (apart from the byte/hex codecs):
//
//   - BigInt stores 64-bit limbs in an inline array of kMaxBits = 4096 bits,
//     enough for the product of two 2048-bit operands. A result that does
//     not fit throws std::length_error.
//   - Multiplication is schoolbook, division is Knuth Algorithm D, gcd and
//     inverse are Euclidean: at <= 4096 bits asymptotically fancy algorithms
//     do not pay.
//   - Modular exponentiation with an odd modulus runs on Montgomery's CIOS
//     multiplication (class Montgomery) over exactly the modulus's limb
//     count, converting in and out of Montgomery form once per call. Even
//     moduli, which Montgomery cannot handle, use plain square-and-multiply
//     with division, so their products must fit: moduli up to 2048 bits.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ibsec::crypto {

class BigInt {
 public:
  using Limb = std::uint64_t;
  static constexpr std::size_t kLimbBits = 64;
  static constexpr std::size_t kMaxBits = 4096;
  static constexpr std::size_t kMaxLimbs = kMaxBits / kLimbBits;

  BigInt() = default;
  BigInt(std::uint64_t value);  // NOLINT(google-explicit-constructor)

  /// Big-endian byte import/export (no sign, leading zeros tolerated/omitted).
  static BigInt from_bytes_be(std::span<const std::uint8_t> bytes);
  std::vector<std::uint8_t> to_bytes_be() const;

  static BigInt from_hex(std::string_view hex);
  std::string to_hex() const;

  /// Little-endian limb import; leading zero limbs are tolerated.
  static BigInt from_limbs(std::span<const Limb> limbs);
  /// The significant limbs, least significant first (empty for zero).
  std::span<const Limb> limbs() const { return {limbs_.data(), size_}; }

  bool is_zero() const { return size_ == 0; }
  bool is_odd() const { return size_ != 0 && (limbs_[0] & 1u); }
  /// Number of significant bits (0 for zero).
  std::size_t bit_length() const;
  bool bit(std::size_t i) const;

  int compare(const BigInt& other) const;
  bool operator==(const BigInt& o) const { return compare(o) == 0; }
  bool operator!=(const BigInt& o) const { return compare(o) != 0; }
  bool operator<(const BigInt& o) const { return compare(o) < 0; }
  bool operator<=(const BigInt& o) const { return compare(o) <= 0; }
  bool operator>(const BigInt& o) const { return compare(o) > 0; }
  bool operator>=(const BigInt& o) const { return compare(o) >= 0; }

  BigInt operator+(const BigInt& o) const;
  /// Requires *this >= o (unsigned arithmetic); throws std::underflow_error.
  BigInt operator-(const BigInt& o) const;
  BigInt operator*(const BigInt& o) const;
  BigInt operator<<(std::size_t bits) const;
  BigInt operator>>(std::size_t bits) const;

  struct DivMod;  // { quotient, remainder }; defined after the class
  /// Knuth Algorithm D; throws std::domain_error on division by zero.
  DivMod divmod(const BigInt& divisor) const;
  BigInt operator/(const BigInt& o) const;
  BigInt operator%(const BigInt& o) const;

  /// Remainder modulo a machine word (fast path for trial division).
  std::uint32_t mod_u32(std::uint32_t m) const;

  /// (base ^ exponent) mod modulus; modulus must be nonzero. Odd moduli take
  /// the Montgomery path; even ones must be at most 2048 bits.
  static BigInt modexp(const BigInt& base, const BigInt& exponent,
                       const BigInt& modulus);

  static BigInt gcd(BigInt a, BigInt b);

  /// Multiplicative inverse of a modulo m, if gcd(a, m) == 1.
  static std::optional<BigInt> mod_inverse(const BigInt& a, const BigInt& m);

  /// Uniform value in [0, bound) by rejection sampling; throws
  /// std::domain_error on a zero bound. `fill_random(span)` must fill the
  /// span it is given with random bytes; each draw asks for exactly
  /// ceil(bit_length(bound) / 8) bytes.
  template <typename ByteSource>
  static BigInt random_below(const BigInt& bound, ByteSource&& fill_random) {
    if (bound.is_zero()) {
      throw std::domain_error("BigInt::random_below: zero bound");
    }
    const std::size_t bits = bound.bit_length();
    std::array<std::uint8_t, kMaxBits / 8> storage{};
    const std::span<std::uint8_t> buf(storage.data(), (bits + 7) / 8);
    for (;;) {
      fill_random(buf);
      // Mask excess high bits so rejection succeeds quickly.
      if (bits % 8 != 0) {
        buf[0] &= static_cast<std::uint8_t>((1u << (bits % 8)) - 1);
      }
      BigInt candidate = from_bytes_be(buf);
      if (candidate < bound) return candidate;
    }
  }

 private:
  void trim();

  // Little-endian limbs; limbs at and past size_ are always zero.
  std::array<Limb, kMaxLimbs> limbs_{};
  std::size_t size_ = 0;
};

struct BigInt::DivMod {
  BigInt quotient;
  BigInt remainder;
};

inline BigInt BigInt::operator/(const BigInt& o) const {
  return divmod(o).quotient;
}
inline BigInt BigInt::operator%(const BigInt& o) const {
  return divmod(o).remainder;
}

/// Montgomery arithmetic modulo a fixed odd modulus m of n limbs, with
/// R = 2^(64n). A Residue is a caller-owned limb array whose first n limbs
/// hold a value below m in Montgomery form (x * R mod m); the rest are
/// unused. Construction computes R mod m and R^2 mod m once, so every
/// exponentiation against the same modulus can share one Montgomery.
class Montgomery {
 public:
  using Residue = std::array<BigInt::Limb, BigInt::kMaxLimbs>;

  /// Throws std::domain_error unless `modulus` is odd.
  explicit Montgomery(const BigInt& modulus);

  /// Montgomery form of x (reduced modulo m first).
  void to_mont(const BigInt& x, Residue& out) const;
  /// The plain value a Montgomery-form residue stands for.
  BigInt from_mont(const Residue& a) const;

  /// out = a * b * R^-1 mod m; out may alias a or b.
  void mul(const Residue& a, const Residue& b, Residue& out) const;
  /// out = base^exponent, all in Montgomery form; out may alias base.
  void pow(const Residue& base, const BigInt& exponent, Residue& out) const;

  /// Montgomery form of 1, i.e. R mod m.
  const Residue& one() const { return one_; }
  bool equal(const Residue& a, const Residue& b) const;

 private:
  BigInt modulus_;
  std::size_t words_;
  BigInt::Limb neg_inv_ = 0;  // -m^-1 mod 2^64
  Residue one_{};             // R mod m
  Residue r2_{};              // R^2 mod m: to_mont multiplies by it
};

}  // namespace ibsec::crypto
