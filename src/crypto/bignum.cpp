#include "crypto/bignum.h"

#include <algorithm>
#include <bit>

#include "common/annotations.h"

namespace ibsec::crypto {
namespace {

using Limb = BigInt::Limb;
using Wide = unsigned __int128;
constexpr std::size_t kMaxLimbs = BigInt::kMaxLimbs;

[[noreturn]] void throw_too_wide() {
  throw std::length_error("BigInt: value exceeds 4096 bits");
}

// x = (top:x) - m when (top:x) >= m, for n-limb x and m with (top:x) < 2m.
// The choice is a select, not a data-dependent branch.
template <typename Width>
inline void reduce_once(Limb* x, Limb top, const Limb* m, Width width) {
  const std::size_t n = width;
  std::array<Limb, kMaxLimbs> d;  // only the first n limbs are used
  Limb borrow = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const Wide diff = static_cast<Wide>(x[j]) - m[j] - borrow;
    d[j] = static_cast<Limb>(diff);
    borrow = static_cast<Limb>(diff >> 64) & 1;
  }
  const bool keep_x = top < borrow;
  for (std::size_t j = 0; j < n; ++j) x[j] = keep_x ? x[j] : d[j];
}

// Montgomery multiplication, Coarsely Integrated Operand Scanning (Koc,
// Acar & Kaliski 1996): out = a * b * 2^(-64n) mod m for a, b < m, with m
// odd and n limbs. Each outer step adds a * b[i], then adds the multiple of
// m that clears the low limb and shifts one limb down, so the running sum
// t stays below 2m and fits in n + 2 limbs. out may alias a or b: it is
// written only after the last read.
//
// Width is std::size_t, or a std::integral_constant for the small widths
// keygen uses, so that the compiler unrolls those loops completely.
template <typename Width>
IBSEC_HOT inline void mont_mul_words(const Limb* a, const Limb* b,
                                     const Limb* m, Limb neg_inv, Width width,
                                     Limb* out) {
  const std::size_t n = width;
  std::array<Limb, kMaxLimbs + 2> t;  // only the first n + 2 limbs are used
  for (std::size_t j = 0; j < n + 2; ++j) t[j] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Limb bi = b[i];
    Limb carry = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const Wide s = static_cast<Wide>(a[j]) * bi + t[j] + carry;
      t[j] = static_cast<Limb>(s);
      carry = static_cast<Limb>(s >> 64);
    }
    Wide s = static_cast<Wide>(t[n]) + carry;
    t[n] = static_cast<Limb>(s);
    t[n + 1] = static_cast<Limb>(s >> 64);

    const Limb q = t[0] * neg_inv;  // t + q * m == 0 mod 2^64
    s = static_cast<Wide>(q) * m[0] + t[0];
    carry = static_cast<Limb>(s >> 64);
    for (std::size_t j = 1; j < n; ++j) {
      s = static_cast<Wide>(q) * m[j] + t[j] + carry;
      t[j - 1] = static_cast<Limb>(s);
      carry = static_cast<Limb>(s >> 64);
    }
    s = static_cast<Wide>(t[n]) + carry;
    t[n - 1] = static_cast<Limb>(s);
    t[n] = t[n + 1] + static_cast<Limb>(s >> 64);
  }

  reduce_once(t.data(), t[n], m, width);  // t < 2m
  for (std::size_t j = 0; j < n; ++j) out[j] = t[j];
}

// Left-to-right sliding-window exponentiation in Montgomery form: out =
// base^e, where e is given as little-endian limbs and one is R mod m. The
// table holds the odd powers base^1, base^3, ..., base^(2^w - 1), so each
// window of up to w bits ending in a 1 costs one multiply on top of the
// squarings. Short exponents (e = 65537) skip the table. out may alias
// base.
template <typename Width>
IBSEC_HOT void mont_pow_words(const Limb* base, std::span<const Limb> e,
                              const Limb* m, Limb neg_inv, const Limb* one,
                              Width width, Limb* out) {
  constexpr std::size_t kWindowBits = 4;
  const std::size_t n = width;
  const auto bit = [e](std::size_t i) {
    return static_cast<std::size_t>(e[i / 64] >> (i % 64)) & 1u;
  };
  const std::size_t bits =
      e.empty() ? 0
                : 64 * (e.size() - 1) +
                      static_cast<std::size_t>(std::bit_width(e.back()));
  const std::size_t window = bits > 64 ? kWindowBits : 1;

  using Words = std::array<Limb, kMaxLimbs>;  // the first n limbs are used
  std::array<Words, std::size_t{1} << (kWindowBits - 1)> odd_powers;
  std::copy_n(base, n, odd_powers[0].begin());
  if (window > 1) {
    Words square;
    mont_mul_words(base, base, m, neg_inv, width, square.data());
    for (std::size_t k = 1; k < odd_powers.size(); ++k) {
      mont_mul_words(odd_powers[k - 1].data(), square.data(), m, neg_inv,
                     width, odd_powers[k].data());
    }
  }

  std::copy_n(one, n, out);
  bool is_one = true;  // squaring Montgomery 1 is a no-op: skip it
  for (std::size_t i = bits; i > 0;) {
    if (bit(i - 1) == 0) {
      if (!is_one) mont_mul_words(out, out, m, neg_inv, width, out);
      --i;
      continue;
    }
    // The window is bits [low, i): at most `window` wide, ending in a 1.
    std::size_t low = i > window ? i - window : 0;
    while (bit(low) == 0) ++low;
    std::size_t value = 0;
    for (std::size_t j = i; j-- > low;) {
      value = (value << 1) | bit(j);
      if (!is_one) mont_mul_words(out, out, m, neg_inv, width, out);
    }
    mont_mul_words(out, odd_powers[value >> 1].data(), m, neg_inv, width,
                   out);
    is_one = false;
    i = low;
  }
}

// Calls fn with the limb count as a compile-time constant for the primes
// and moduli of 256- and 512-bit keys (2, 4 and 8 limbs), and as a plain
// std::size_t otherwise.
template <typename Fn>
void with_width(std::size_t n, Fn&& fn) {
  switch (n) {
    case 2: return fn(std::integral_constant<std::size_t, 2>{});
    case 4: return fn(std::integral_constant<std::size_t, 4>{});
    case 8: return fn(std::integral_constant<std::size_t, 8>{});
    default: return fn(n);
  }
}

IBSEC_HOT void mont_mul(const Limb* a, const Limb* b, const Limb* m,
                        Limb neg_inv, std::size_t n, Limb* out) {
  with_width(n, [&](auto width) {
    mont_mul_words(a, b, m, neg_inv, width, out);
  });
}

// x = 2x mod m for x < m (n limbs).
void mod_double(Limb* x, const Limb* m, std::size_t n) {
  Limb carry = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const Limb top = x[j] >> 63;
    x[j] = (x[j] << 1) | carry;
    carry = top;
  }
  reduce_once(x, carry, m, n);
}

}  // namespace

BigInt::BigInt(std::uint64_t value) {
  limbs_[0] = value;
  size_ = value != 0 ? 1 : 0;
}

void BigInt::trim() {
  while (size_ > 0 && limbs_[size_ - 1] == 0) --size_;
}

BigInt BigInt::from_limbs(std::span<const Limb> limbs) {
  std::size_t n = limbs.size();
  while (n > 0 && limbs[n - 1] == 0) --n;
  if (n > kMaxLimbs) throw_too_wide();
  BigInt out;
  std::copy_n(limbs.begin(), n, out.limbs_.begin());
  out.size_ = n;
  return out;
}

BigInt BigInt::from_bytes_be(std::span<const std::uint8_t> bytes) {
  std::size_t skip = 0;
  while (skip < bytes.size() && bytes[skip] == 0) ++skip;
  const std::span<const std::uint8_t> digits = bytes.subspan(skip);
  if (digits.size() > kMaxBits / 8) throw_too_wide();
  BigInt out;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    const std::size_t byte_index = digits.size() - 1 - i;  // significance
    out.limbs_[i / 8] |= static_cast<Limb>(digits[byte_index]) << (8 * (i % 8));
  }
  out.size_ = (digits.size() + 7) / 8;
  return out;
}

std::vector<std::uint8_t> BigInt::to_bytes_be() const {
  if (is_zero()) return {};
  const std::size_t bytes = (bit_length() + 7) / 8;
  std::vector<std::uint8_t> out(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    out[bytes - 1 - i] =
        static_cast<std::uint8_t>(limbs_[i / 8] >> (8 * (i % 8)));
  }
  return out;
}

BigInt BigInt::from_hex(std::string_view hex) {
  BigInt out;
  for (char c : hex) {
    std::uint32_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint32_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<std::uint32_t>(c - 'A' + 10);
    } else {
      throw std::invalid_argument("BigInt::from_hex: invalid digit");
    }
    out = (out << 4) + BigInt(digit);
  }
  return out;
}

std::string BigInt::to_hex() const {
  if (is_zero()) return "0";
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  bool leading = true;
  for (std::size_t i = size_; i-- > 0;) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      const auto nibble = (limbs_[i] >> shift) & 0xF;
      if (leading && nibble == 0) continue;
      leading = false;
      out.push_back(kDigits[nibble]);
    }
  }
  return out;
}

std::size_t BigInt::bit_length() const {
  if (size_ == 0) return 0;
  return (size_ - 1) * kLimbBits +
         static_cast<std::size_t>(std::bit_width(limbs_[size_ - 1]));
}

bool BigInt::bit(std::size_t i) const {
  const std::size_t limb = i / kLimbBits;
  if (limb >= size_) return false;
  return (limbs_[limb] >> (i % kLimbBits)) & 1u;
}

int BigInt::compare(const BigInt& other) const {
  if (size_ != other.size_) return size_ < other.size_ ? -1 : 1;
  for (std::size_t i = size_; i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) {
      return limbs_[i] < other.limbs_[i] ? -1 : 1;
    }
  }
  return 0;
}

BigInt BigInt::operator+(const BigInt& o) const {
  BigInt out;
  const std::size_t n = std::max(size_, o.size_);
  Limb carry = 0;
  for (std::size_t i = 0; i < n; ++i) {  // limbs past size_ read as zero
    const Wide sum = static_cast<Wide>(limbs_[i]) + o.limbs_[i] + carry;
    out.limbs_[i] = static_cast<Limb>(sum);
    carry = static_cast<Limb>(sum >> 64);
  }
  out.size_ = n;
  if (carry) {
    if (n == kMaxLimbs) throw_too_wide();
    out.limbs_[n] = carry;
    out.size_ = n + 1;
  }
  return out;
}

BigInt BigInt::operator-(const BigInt& o) const {
  if (*this < o) throw std::underflow_error("BigInt subtraction underflow");
  BigInt out;
  Limb borrow = 0;
  for (std::size_t i = 0; i < size_; ++i) {
    const Wide diff = static_cast<Wide>(limbs_[i]) - o.limbs_[i] - borrow;
    out.limbs_[i] = static_cast<Limb>(diff);
    borrow = static_cast<Limb>(diff >> 64) & 1;
  }
  out.size_ = size_;
  out.trim();
  return out;
}

BigInt BigInt::operator*(const BigInt& o) const {
  if (is_zero() || o.is_zero()) return {};
  // The full product can be one limb wider than the capacity before its
  // leading zeros are trimmed, so it is formed in a double-width buffer.
  const std::size_t n = size_ + o.size_;
  std::array<Limb, 2 * kMaxLimbs> product;
  std::fill_n(product.begin(), n, Limb{0});
  for (std::size_t i = 0; i < size_; ++i) {
    Limb carry = 0;
    for (std::size_t j = 0; j < o.size_; ++j) {
      const Wide cur = static_cast<Wide>(limbs_[i]) * o.limbs_[j] +
                       product[i + j] + carry;
      product[i + j] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> 64);
    }
    product[i + o.size_] = carry;
  }
  return from_limbs(std::span<const Limb>(product.data(), n));
}

BigInt BigInt::operator<<(std::size_t bits) const {
  if (is_zero() || bits == 0) return *this;
  const std::size_t new_bits = bit_length() + bits;
  if (new_bits > kMaxBits) throw_too_wide();
  const std::size_t limb_shift = bits / kLimbBits;
  const std::size_t bit_shift = bits % kLimbBits;
  BigInt out;
  for (std::size_t i = 0; i < size_; ++i) {
    out.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
    // The carried-out high part is zero whenever its index would pass the
    // capacity (new_bits fits).
    if (bit_shift != 0 && i + limb_shift + 1 < kMaxLimbs) {
      out.limbs_[i + limb_shift + 1] |= limbs_[i] >> (kLimbBits - bit_shift);
    }
  }
  out.size_ = (new_bits + kLimbBits - 1) / kLimbBits;
  return out;
}

BigInt BigInt::operator>>(std::size_t bits) const {
  const std::size_t limb_shift = bits / kLimbBits;
  if (limb_shift >= size_) return {};
  const std::size_t bit_shift = bits % kLimbBits;
  BigInt out;
  out.size_ = size_ - limb_shift;
  for (std::size_t i = 0; i < out.size_; ++i) {
    Limb value = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < size_) {
      value |= limbs_[i + limb_shift + 1] << (kLimbBits - bit_shift);
    }
    out.limbs_[i] = value;
  }
  out.trim();
  return out;
}

BigInt::DivMod BigInt::divmod(const BigInt& divisor) const {
  if (divisor.is_zero()) throw std::domain_error("BigInt division by zero");
  if (*this < divisor) return {BigInt{}, *this};
  if (divisor.size_ == 1) {
    // Single-limb fast path.
    BigInt quotient;
    Limb rem = 0;
    const Limb d = divisor.limbs_[0];
    for (std::size_t i = size_; i-- > 0;) {
      const Wide cur = (static_cast<Wide>(rem) << 64) | limbs_[i];
      quotient.limbs_[i] = static_cast<Limb>(cur / d);
      rem = static_cast<Limb>(cur % d);
    }
    quotient.size_ = size_;
    quotient.trim();
    return {quotient, BigInt(rem)};
  }

  // Knuth TAOCP vol. 2, Algorithm D. Normalize so the divisor's top limb has
  // its high bit set, making the 2-limb quotient estimate off by at most 2.
  const std::size_t n = divisor.size_;
  const std::size_t m = size_ - n;
  const int shift = std::countl_zero(divisor.limbs_[n - 1]);
  const auto shift_left = [shift](const Limb* src, std::size_t count,
                                  Limb* dst) {
    // dst gets count + 1 limbs: src << shift, including the carried-out top.
    Limb carry = 0;
    for (std::size_t i = 0; i < count; ++i) {
      dst[i] = (src[i] << shift) | carry;
      carry = shift != 0 ? src[i] >> (kLimbBits - shift) : 0;
    }
    dst[count] = carry;
  };
  std::array<Limb, kMaxLimbs + 1> un;  // dividend plus an extra high limb
  std::array<Limb, kMaxLimbs + 1> vn;
  shift_left(limbs_.data(), size_, un.data());
  shift_left(divisor.limbs_.data(), n, vn.data());  // vn[n] is 0

  BigInt quotient;
  constexpr Wide kBase = static_cast<Wide>(1) << 64;
  for (std::size_t j = m + 1; j-- > 0;) {
    const Wide numerator = (static_cast<Wide>(un[j + n]) << 64) | un[j + n - 1];
    Wide qhat = numerator / vn[n - 1];
    Wide rhat = numerator % vn[n - 1];
    while (qhat >= kBase ||
           qhat * vn[n - 2] > ((rhat << 64) | un[j + n - 2])) {
      --qhat;
      rhat += vn[n - 1];
      if (rhat >= kBase) break;
    }

    // Multiply-and-subtract qhat * v from u[j .. j+n].
    Limb borrow = 0;
    Limb carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Wide product = qhat * vn[i] + carry;
      carry = static_cast<Limb>(product >> 64);
      const Wide sub = static_cast<Wide>(un[i + j]) -
                       static_cast<Limb>(product) - borrow;
      un[i + j] = static_cast<Limb>(sub);
      borrow = static_cast<Limb>(sub >> 64) & 1;
    }
    const Wide sub = static_cast<Wide>(un[j + n]) - carry - borrow;
    un[j + n] = static_cast<Limb>(sub);

    if ((sub >> 64) != 0) {
      // qhat was one too large: add v back.
      --qhat;
      Limb add_carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const Wide s = static_cast<Wide>(un[i + j]) + vn[i] + add_carry;
        un[i + j] = static_cast<Limb>(s);
        add_carry = static_cast<Limb>(s >> 64);
      }
      un[j + n] += add_carry;
    }
    quotient.limbs_[j] = static_cast<Limb>(qhat);
  }
  quotient.size_ = m + 1;
  quotient.trim();

  // The remainder is un[0 .. n), shifted back down.
  BigInt remainder;
  for (std::size_t i = 0; i < n; ++i) {
    Limb value = un[i] >> shift;
    if (shift != 0 && i + 1 < n) value |= un[i + 1] << (kLimbBits - shift);
    remainder.limbs_[i] = value;
  }
  remainder.size_ = n;
  remainder.trim();
  return {quotient, remainder};
}

std::uint32_t BigInt::mod_u32(std::uint32_t m) const {
  if (m == 0) throw std::domain_error("BigInt mod by zero");
  // Two 32-bit steps per limb keep every dividend within 64 bits.
  std::uint64_t rem = 0;
  for (std::size_t i = size_; i-- > 0;) {
    rem = ((rem << 32) | (limbs_[i] >> 32)) % m;
    rem = ((rem << 32) | (limbs_[i] & 0xFFFFFFFFu)) % m;
  }
  return static_cast<std::uint32_t>(rem);
}

IBSEC_HOT BigInt BigInt::modexp(const BigInt& base, const BigInt& exponent,
                                const BigInt& modulus) {
  if (modulus.is_zero()) throw std::domain_error("modexp: zero modulus");
  if (modulus.is_odd()) {
    const Montgomery mont(modulus);
    Montgomery::Residue x{};
    mont.to_mont(base, x);
    mont.pow(x, exponent, x);
    return mont.from_mont(x);
  }
  // Montgomery needs gcd(R, m) == 1: even moduli square and multiply with a
  // full division per step.
  BigInt result(1);
  BigInt b = base % modulus;
  const std::size_t bits = exponent.bit_length();
  for (std::size_t i = 0; i < bits; ++i) {
    if (exponent.bit(i)) result = (result * b) % modulus;
    b = (b * b) % modulus;
  }
  return result % modulus;
}

BigInt BigInt::gcd(BigInt a, BigInt b) {
  while (!b.is_zero()) {
    BigInt r = a % b;
    a = b;
    b = r;
  }
  return a;
}

std::optional<BigInt> BigInt::mod_inverse(const BigInt& a, const BigInt& m) {
  // Iterative extended Euclid tracking only the coefficient of `a`, with
  // signs managed explicitly since BigInt is unsigned.
  BigInt old_r = a % m, r = m;
  BigInt old_s(1), s(0);
  bool old_s_neg = false, s_neg = false;
  while (!r.is_zero()) {
    const auto [q, rem] = old_r.divmod(r);
    old_r = r;
    r = rem;
    // new_s = old_s - q * s  (signed)
    BigInt qs = q * s;
    BigInt new_s;
    bool new_s_neg;
    if (old_s_neg == s_neg) {
      if (old_s >= qs) {
        new_s = old_s - qs;
        new_s_neg = old_s_neg;
      } else {
        new_s = qs - old_s;
        new_s_neg = !old_s_neg;
      }
    } else {
      new_s = old_s + qs;
      new_s_neg = old_s_neg;
    }
    old_s = s;
    old_s_neg = s_neg;
    s = new_s;
    s_neg = new_s_neg;
  }
  if (old_r != BigInt(1)) return std::nullopt;
  if (old_s_neg) return m - (old_s % m);
  return old_s % m;
}

Montgomery::Montgomery(const BigInt& modulus)
    : modulus_(modulus), words_(modulus.limbs().size()) {
  if (!modulus.is_odd()) {
    throw std::domain_error("Montgomery: modulus must be odd");
  }
  const Limb* m = modulus_.limbs().data();

  // Newton's iteration for m^-1 mod 2^64: an odd m0 is its own inverse mod
  // 8, and each step doubles the number of correct low bits (3 -> 96).
  Limb inv = m[0];
  for (int i = 0; i < 5; ++i) inv *= 2 - m[0] * inv;
  neg_inv_ = 0 - inv;

  // R mod m = (R - m) mod m, and R - m = ~m + 1 fits in n limbs (m is odd,
  // so adding 1 to ~m[0] never carries).
  Residue r_minus_m{};
  for (std::size_t j = 0; j < words_; ++j) r_minus_m[j] = ~m[j];
  r_minus_m[0] += 1;
  const BigInt r_mod_m =
      BigInt::from_limbs(std::span<const Limb>(r_minus_m.data(), words_)) %
      modulus_;
  std::copy(r_mod_m.limbs().begin(), r_mod_m.limbs().end(), one_.begin());

  // R^2 mod m is the Montgomery form of 2^(64n): left-to-right binary
  // powering of 2 from one_, where "multiply by 2" is a modular doubling.
  const std::size_t e = BigInt::kLimbBits * words_;
  r2_ = one_;
  for (int i = static_cast<int>(std::bit_width(e)); i-- > 0;) {
    mont_mul(r2_.data(), r2_.data(), m, neg_inv_, words_, r2_.data());
    if ((e >> i) & 1u) mod_double(r2_.data(), m, words_);
  }
}

void Montgomery::to_mont(const BigInt& x, Residue& out) const {
  Residue plain{};
  if (x < modulus_) {
    std::copy(x.limbs().begin(), x.limbs().end(), plain.begin());
  } else {
    const BigInt reduced = x % modulus_;
    std::copy(reduced.limbs().begin(), reduced.limbs().end(), plain.begin());
  }
  mul(plain, r2_, out);
}

BigInt Montgomery::from_mont(const Residue& a) const {
  Residue unit{};
  unit[0] = 1;
  Residue plain{};
  mul(a, unit, plain);
  return BigInt::from_limbs(
      std::span<const BigInt::Limb>(plain.data(), words_));
}

IBSEC_HOT void Montgomery::mul(const Residue& a, const Residue& b,
                               Residue& out) const {
  mont_mul(a.data(), b.data(), modulus_.limbs().data(), neg_inv_, words_,
           out.data());
}

IBSEC_HOT void Montgomery::pow(const Residue& base, const BigInt& exponent,
                               Residue& out) const {
  with_width(words_, [&](auto width) {
    mont_pow_words(base.data(), exponent.limbs(), modulus_.limbs().data(),
                   neg_inv_, one_.data(), width, out.data());
  });
}

bool Montgomery::equal(const Residue& a, const Residue& b) const {
  return std::equal(a.begin(),
                    a.begin() + static_cast<std::ptrdiff_t>(words_), b.begin());
}

}  // namespace ibsec::crypto
