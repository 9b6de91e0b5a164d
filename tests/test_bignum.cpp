// BigInt: arithmetic identities, Knuth-division properties, shifts, codecs,
// modular exponentiation (Fermat checks), gcd and modular inverse.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "crypto/bignum.h"

namespace ibsec::crypto {
namespace {

BigInt random_bigint(Rng& rng, std::size_t max_limbs) {
  const std::size_t bytes = (1 + rng.uniform(max_limbs)) * 4;
  std::vector<std::uint8_t> buf(bytes);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u32());
  return BigInt::from_bytes_be(buf);
}

TEST(BigInt, ZeroProperties) {
  const BigInt zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_FALSE(zero.is_odd());
  EXPECT_EQ(zero.bit_length(), 0u);
  EXPECT_EQ(zero.to_hex(), "0");
  EXPECT_TRUE(zero.to_bytes_be().empty());
}

TEST(BigInt, SmallValueRoundTrip) {
  const BigInt v(0x123456789ABCDEFULL);
  EXPECT_EQ(v.to_hex(), "123456789abcdef");
  EXPECT_EQ(BigInt::from_hex("123456789abcdef"), v);
  EXPECT_EQ(BigInt::from_bytes_be(v.to_bytes_be()), v);
}

TEST(BigInt, BytesRoundTripIgnoresLeadingZeros) {
  const std::vector<std::uint8_t> with_zeros = {0, 0, 0x12, 0x34};
  const BigInt v = BigInt::from_bytes_be(with_zeros);
  EXPECT_EQ(v, BigInt(0x1234));
  EXPECT_EQ(v.to_bytes_be(), (std::vector<std::uint8_t>{0x12, 0x34}));
}

TEST(BigInt, ComparisonTotalOrder) {
  const BigInt a(5), b(7), c = BigInt::from_hex("ffffffffffffffffff");
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(a, c);
  EXPECT_EQ(a, BigInt(5));
  EXPECT_GE(c, b);
}

TEST(BigInt, AdditionCarriesAcrossLimbs) {
  const BigInt a = BigInt::from_hex("ffffffffffffffff");
  EXPECT_EQ((a + BigInt(1)).to_hex(), "10000000000000000");
}

TEST(BigInt, SubtractionBorrowsAcrossLimbs) {
  const BigInt a = BigInt::from_hex("10000000000000000");
  EXPECT_EQ((a - BigInt(1)).to_hex(), "ffffffffffffffff");
}

TEST(BigInt, SubtractionUnderflowThrows) {
  EXPECT_THROW((void)(BigInt(1) - BigInt(2)), std::underflow_error);
}

TEST(BigInt, AddSubRoundTripRandom) {
  Rng rng(601);
  for (int trial = 0; trial < 100; ++trial) {
    const BigInt a = random_bigint(rng, 8);
    const BigInt b = random_bigint(rng, 8);
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ((a + b) - a, b);
  }
}

TEST(BigInt, MultiplicationIdentities) {
  Rng rng(602);
  const BigInt a = random_bigint(rng, 8);
  EXPECT_TRUE((a * BigInt()).is_zero());
  EXPECT_EQ(a * BigInt(1), a);
  const BigInt b = random_bigint(rng, 8);
  EXPECT_EQ(a * b, b * a);
}

TEST(BigInt, MultiplicationKnownValue) {
  const BigInt a = BigInt::from_hex("ffffffffffffffff");
  EXPECT_EQ((a * a).to_hex(), "fffffffffffffffe0000000000000001");
}

TEST(BigInt, DistributiveLaw) {
  Rng rng(603);
  for (int trial = 0; trial < 30; ++trial) {
    const BigInt a = random_bigint(rng, 6);
    const BigInt b = random_bigint(rng, 6);
    const BigInt c = random_bigint(rng, 6);
    EXPECT_EQ(a * (b + c), a * b + a * c);
  }
}

TEST(BigInt, ShiftsInverse) {
  Rng rng(604);
  for (std::size_t shift : {1u, 31u, 32u, 33u, 64u, 100u}) {
    const BigInt a = random_bigint(rng, 6);
    EXPECT_EQ((a << shift) >> shift, a) << shift;
  }
}

TEST(BigInt, ShiftLeftMultipliesByPowerOfTwo) {
  const BigInt a(3);
  EXPECT_EQ(a << 4, BigInt(48));
  EXPECT_EQ(a << 33, BigInt(3) * (BigInt(1) << 33));
}

TEST(BigInt, DivModByZeroThrows) {
  EXPECT_THROW((void)BigInt(5).divmod(BigInt()), std::domain_error);
  EXPECT_THROW((void)BigInt(5).mod_u32(0), std::domain_error);
}

TEST(BigInt, DivModEuclideanPropertyRandom) {
  // The defining property of division: a = q*b + r with 0 <= r < b.
  // Covers single-limb and multi-limb divisors (Knuth D both branches).
  Rng rng(605);
  for (int trial = 0; trial < 300; ++trial) {
    const BigInt a = random_bigint(rng, 12);
    BigInt b = random_bigint(rng, trial % 2 ? 1 : 6);
    if (b.is_zero()) b = BigInt(1);
    const auto [q, r] = a.divmod(b);
    EXPECT_LT(r, b);
    EXPECT_EQ(q * b + r, a);
  }
}

TEST(BigInt, DivModKnuthD3CornerCase) {
  // Divisor with high limb 0x80000000 and a dividend driving the qhat
  // correction path.
  const BigInt a = BigInt::from_hex("7fffffff800000010000000000000000");
  const BigInt b = BigInt::from_hex("800000008000000200000005");
  const auto [q, r] = a.divmod(b);
  EXPECT_EQ(q * b + r, a);
  EXPECT_LT(r, b);
}

TEST(BigInt, ModU32MatchesDivMod) {
  Rng rng(606);
  for (int trial = 0; trial < 50; ++trial) {
    const BigInt a = random_bigint(rng, 8);
    const std::uint32_t m = static_cast<std::uint32_t>(rng.uniform(1000)) + 1;
    EXPECT_EQ(BigInt(a.mod_u32(m)), a % BigInt(m));
  }
}

TEST(BigInt, ModExpSmallKnownValues) {
  // 3^4 mod 5 = 1; 2^10 mod 1000 = 24.
  EXPECT_EQ(BigInt::modexp(BigInt(3), BigInt(4), BigInt(5)), BigInt(1));
  EXPECT_EQ(BigInt::modexp(BigInt(2), BigInt(10), BigInt(1000)), BigInt(24));
}

TEST(BigInt, ModExpFermatLittleTheorem) {
  // a^(p-1) ≡ 1 mod p for prime p and gcd(a,p)=1.
  const BigInt p = BigInt::from_hex("fffffffb");  // 4294967291, prime
  Rng rng(607);
  for (int trial = 0; trial < 20; ++trial) {
    BigInt a = random_bigint(rng, 4) % p;
    if (a.is_zero()) a = BigInt(2);
    EXPECT_EQ(BigInt::modexp(a, p - BigInt(1), p), BigInt(1));
  }
}

TEST(BigInt, ModExpZeroExponent) {
  EXPECT_EQ(BigInt::modexp(BigInt(12345), BigInt(), BigInt(7)), BigInt(1));
}

TEST(BigInt, GcdKnownValues) {
  EXPECT_EQ(BigInt::gcd(BigInt(48), BigInt(18)), BigInt(6));
  EXPECT_EQ(BigInt::gcd(BigInt(17), BigInt(13)), BigInt(1));
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(5)), BigInt(5));
}

TEST(BigInt, GcdDividesBoth) {
  Rng rng(608);
  for (int trial = 0; trial < 30; ++trial) {
    const BigInt a = random_bigint(rng, 5);
    const BigInt b = random_bigint(rng, 5);
    if (a.is_zero() || b.is_zero()) continue;
    const BigInt g = BigInt::gcd(a, b);
    EXPECT_TRUE((a % g).is_zero());
    EXPECT_TRUE((b % g).is_zero());
  }
}

TEST(BigInt, ModInverseProperty) {
  const BigInt m = BigInt::from_hex("fffffffb");  // prime modulus
  Rng rng(609);
  for (int trial = 0; trial < 30; ++trial) {
    BigInt a = random_bigint(rng, 3) % m;
    if (a.is_zero()) continue;
    const auto inv = BigInt::mod_inverse(a, m);
    ASSERT_TRUE(inv.has_value());
    EXPECT_EQ((a * *inv) % m, BigInt(1));
  }
}

TEST(BigInt, ModInverseNonCoprimeFails) {
  EXPECT_FALSE(BigInt::mod_inverse(BigInt(6), BigInt(9)).has_value());
  EXPECT_FALSE(BigInt::mod_inverse(BigInt(0), BigInt(7)).has_value());
}

TEST(BigInt, ModInverse65537Style) {
  // The exact shape rsa_generate uses: inverse of e modulo phi.
  const BigInt e(65537);
  const BigInt phi = BigInt::from_hex(
      "3b4a51b7280a17a0d2b337ef44f6f4d8b4b0c7cbd234580f0dcd1f1b7260");
  const auto d = BigInt::mod_inverse(e, phi);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ((e * *d) % phi, BigInt(1));
}

TEST(BigInt, BitAccess) {
  const BigInt v = BigInt::from_hex("8000000000000001");
  EXPECT_TRUE(v.bit(0));
  EXPECT_TRUE(v.bit(63));
  EXPECT_FALSE(v.bit(1));
  EXPECT_FALSE(v.bit(64));
  EXPECT_EQ(v.bit_length(), 64u);
}

// Differential testing against native 128-bit arithmetic: for operands that
// fit in 64 bits, every BigInt operation must agree with the hardware.
TEST(BigInt, DifferentialAgainstNative128) {
  Rng rng(611);
  for (int trial = 0; trial < 500; ++trial) {
    const std::uint64_t a = rng.next_u64();
    const std::uint64_t b = rng.next_u64() | 1;  // nonzero divisor
    const BigInt ba(a), bb(b);

    const __uint128_t sum = static_cast<__uint128_t>(a) + b;
    EXPECT_EQ(ba + bb, (BigInt(static_cast<std::uint64_t>(sum >> 64)) << 64) +
                           BigInt(static_cast<std::uint64_t>(sum)));
    const __uint128_t prod = static_cast<__uint128_t>(a) * b;
    EXPECT_EQ(ba * bb, (BigInt(static_cast<std::uint64_t>(prod >> 64)) << 64) +
                           BigInt(static_cast<std::uint64_t>(prod)));
    const auto [q, r] = ba.divmod(bb);
    EXPECT_EQ(q, BigInt(a / b));
    EXPECT_EQ(r, BigInt(a % b));
    if (a >= b) {
      EXPECT_EQ(ba - bb, BigInt(a - b));
    }
    EXPECT_EQ(ba.compare(bb) < 0, a < b);
  }
}

TEST(BigInt, DifferentialShifts) {
  Rng rng(612);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t a = rng.next_u64();
    const std::size_t s = rng.uniform(63) + 1;
    EXPECT_EQ(BigInt(a) >> s, BigInt(a >> s));
    const __uint128_t shifted = static_cast<__uint128_t>(a) << s;
    EXPECT_EQ(BigInt(a) << s,
              (BigInt(static_cast<std::uint64_t>(shifted >> 64)) << 64) +
                  BigInt(static_cast<std::uint64_t>(shifted)));
  }
}

TEST(BigInt, DifferentialModexp) {
  Rng rng(613);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t base = rng.uniform(1 << 20);
    const std::uint64_t exp = rng.uniform(32);
    const std::uint64_t mod = rng.uniform(1 << 20) + 2;
    __uint128_t expected = 1;
    for (std::uint64_t i = 0; i < exp; ++i) {
      expected = expected * base % mod;
    }
    EXPECT_EQ(BigInt::modexp(BigInt(base), BigInt(exp), BigInt(mod)),
              BigInt(static_cast<std::uint64_t>(expected)));
  }
}

TEST(BigInt, RandomBelowBound) {
  Rng rng(610);
  const BigInt bound = BigInt::from_hex("1000000000000001");
  for (int trial = 0; trial < 50; ++trial) {
    const BigInt r =
        BigInt::random_below(bound, [&](std::span<std::uint8_t> buf) {
          for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u32());
        });
    EXPECT_LT(r, bound);
  }
}

TEST(BigInt, RandomBelowZeroBoundThrows) {
  // An empty draw can never land below zero: reject instead of looping.
  int draws = 0;
  EXPECT_THROW((void)BigInt::random_below(
                   BigInt(), [&](std::span<std::uint8_t>) { ++draws; }),
               std::domain_error);
  EXPECT_EQ(draws, 0);
}

// --- fixed capacity ----------------------------------------------------------

TEST(BigInt, ProductOfTwo2048BitOperandsFits) {
  const BigInt max2048 = (BigInt(1) << 2048) - BigInt(1);
  const BigInt square = max2048 * max2048;  // 2^4096 - 2^2049 + 1
  EXPECT_EQ(square.bit_length(), BigInt::kMaxBits);
  EXPECT_EQ(square, (((BigInt(1) << 4095) - (BigInt(1) << 2048)) << 1) +
                        BigInt(1));
  EXPECT_EQ(square % max2048, BigInt());
  EXPECT_EQ(square / max2048, max2048);
}

TEST(BigInt, OneLimbPastCapacityThrows) {
  const BigInt max2048 = (BigInt(1) << 2048) - BigInt(1);
  const BigInt limb = BigInt(1) << 64;
  EXPECT_THROW((void)(max2048 * max2048 * limb), std::length_error);
  EXPECT_THROW((void)((max2048 * max2048) << 64), std::length_error);
  EXPECT_THROW((void)(BigInt(1) << BigInt::kMaxBits), std::length_error);
  EXPECT_EQ((BigInt(1) << (BigInt::kMaxBits - 1)).bit_length(),
            BigInt::kMaxBits);

  const std::vector<BigInt::Limb> too_wide(BigInt::kMaxLimbs + 1, 1);
  EXPECT_THROW((void)BigInt::from_limbs(too_wide), std::length_error);
  std::vector<std::uint8_t> bytes(BigInt::kMaxBits / 8 + 8, 0);
  bytes[8] = 0x80;  // leading zero bytes are tolerated: exactly 4096 bits
  EXPECT_EQ(BigInt::from_bytes_be(bytes).bit_length(), BigInt::kMaxBits);
  bytes[7] = 1;
  EXPECT_THROW((void)BigInt::from_bytes_be(bytes), std::length_error);

  const BigInt all_ones = (max2048 * max2048) + (max2048 << 1);  // 2^4096 - 1
  EXPECT_EQ(all_ones.bit_length(), BigInt::kMaxBits);
  EXPECT_THROW((void)(all_ones + BigInt(1)), std::length_error);
}

// --- Montgomery modexp against a plain reference -----------------------------

// Right-to-left square-and-multiply on the schoolbook product and Knuth
// division: no Montgomery arithmetic anywhere. Moduli up to 2048 bits keep
// every product within capacity.
BigInt reference_modexp(const BigInt& base, const BigInt& exponent,
                        const BigInt& modulus) {
  BigInt result = BigInt(1) % modulus;
  BigInt b = base % modulus;
  for (std::size_t i = 0; i < exponent.bit_length(); ++i) {
    if (exponent.bit(i)) result = (result * b) % modulus;
    b = (b * b) % modulus;
  }
  return result;
}

BigInt random_bits(Rng& rng, std::size_t bits) {
  std::vector<std::uint8_t> buf((bits + 7) / 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u32());
  if (bits % 8 != 0) {
    buf[0] &= static_cast<std::uint8_t>((1u << (bits % 8)) - 1);
  }
  return BigInt::from_bytes_be(buf);
}

/// Uniform with exactly `bits` bits (top bit set).
BigInt random_exact_bits(Rng& rng, std::size_t bits) {
  return random_bits(rng, bits - 1) + (BigInt(1) << (bits - 1));
}

BigInt random_odd_modulus(Rng& rng, std::size_t bits) {
  const BigInt m = random_exact_bits(rng, bits);
  return m.is_odd() ? m : m + BigInt(1);  // still exactly `bits` bits
}

BigInt random_even_modulus(Rng& rng, std::size_t bits) {
  const BigInt m = random_exact_bits(rng, bits);
  return m.is_odd() ? m - BigInt(1) : m;
}

TEST(Montgomery, ModExpMatchesReferenceForOddModuliOfEveryWidth) {
  Rng rng(614);
  // 1 to 64 32-bit limbs: 32- to 2048-bit moduli, top bit set.
  for (std::size_t limbs = 1; limbs <= 64; ++limbs) {
    const std::size_t bits = 32 * limbs;
    const BigInt odd_m = random_odd_modulus(rng, bits);
    const BigInt full_exponent = random_exact_bits(rng, bits);
    // Bases below, at and above the modulus, up to twice its width.
    const BigInt bases[] = {random_bits(rng, bits) % odd_m, odd_m,
                            odd_m + random_bits(rng, bits),
                            odd_m * random_bits(rng, bits) +
                                random_bits(rng, 16)};
    for (const BigInt& base : bases) {
      for (const BigInt& exponent : {BigInt(), BigInt(1)}) {
        EXPECT_EQ(BigInt::modexp(base, exponent, odd_m),
                  reference_modexp(base, exponent, odd_m))
            << limbs << " limbs, base " << base.to_hex();
      }
    }
    // Full-width exponents dominate the reference's cost: one base per
    // width, alternating between below and above the modulus.
    const BigInt& base = bases[limbs % 2 == 0 ? 0 : 3];
    EXPECT_EQ(BigInt::modexp(base, full_exponent, odd_m),
              reference_modexp(base, full_exponent, odd_m))
        << limbs << " limbs, full-width exponent";
  }
}

TEST(Montgomery, EvenModuliTakeThePlainPath) {
  Rng rng(615);
  for (std::size_t bits : {2u, 33u, 64u, 65u, 200u, 1024u, 2048u}) {
    const BigInt m = random_even_modulus(rng, bits);
    const BigInt base = random_bits(rng, bits + 40);
    for (const BigInt& exponent :
         {BigInt(), BigInt(1), random_bits(rng, bits)}) {
      EXPECT_EQ(BigInt::modexp(base, exponent, m),
                reference_modexp(base, exponent, m))
          << bits << "-bit even modulus";
    }
  }
  EXPECT_THROW((void)Montgomery(BigInt(10)), std::domain_error);
  EXPECT_THROW((void)Montgomery(BigInt()), std::domain_error);
}

TEST(Montgomery, ModulusOneGivesZero) {
  for (const BigInt& base : {BigInt(), BigInt(1), BigInt(12345)}) {
    for (const BigInt& exponent : {BigInt(), BigInt(1), BigInt(65537)}) {
      EXPECT_TRUE(BigInt::modexp(base, exponent, BigInt(1)).is_zero());
    }
  }
}

TEST(Montgomery, FormRoundTripsAndMultiplies) {
  Rng rng(616);
  for (std::size_t bits : {64u, 127u, 128u, 1000u, 4096u}) {
    const BigInt m = random_odd_modulus(rng, bits);
    const Montgomery mont(m);
    const BigInt a = random_bits(rng, bits) % m;
    const BigInt b = random_bits(rng, bits) % m;
    Montgomery::Residue ra{}, rb{}, product{};
    mont.to_mont(a, ra);
    mont.to_mont(b, rb);
    EXPECT_EQ(mont.from_mont(ra), a) << bits;
    mont.mul(ra, rb, product);
    if (bits <= 2048) {  // a * b must fit for the plain check
      EXPECT_EQ(mont.from_mont(product), (a * b) % m) << bits;
    }
    Montgomery::Residue one{};
    mont.to_mont(BigInt(1), one);
    EXPECT_TRUE(mont.equal(one, mont.one())) << bits;
    mont.mul(ra, mont.one(), product);
    EXPECT_TRUE(mont.equal(product, ra)) << bits;
  }
}

}  // namespace
}  // namespace ibsec::crypto
