#include "crypto/rsa.h"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace ibsec::crypto {
namespace {

constexpr std::array<std::uint32_t, 54> kSmallPrimes = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,
    47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107,
    109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
    191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251};

/// A candidate's residues modulo kSmallPrimes, for trial division.
using Residues = std::array<std::uint32_t, kSmallPrimes.size()>;

Residues residues_of(const BigInt& x) {
  Residues r{};
  for (std::size_t i = 0; i < kSmallPrimes.size(); ++i) {
    r[i] = x.mod_u32(kSmallPrimes[i]);
  }
  return r;
}

/// Steps the residues from x to x + 2 without dividing again.
void add_two(Residues& r) {
  for (std::size_t i = 0; i < kSmallPrimes.size(); ++i) {
    r[i] += 2;
    if (r[i] >= kSmallPrimes[i]) r[i] -= kSmallPrimes[i];
  }
}

bool has_small_factor(const Residues& r) {
  return std::find(r.begin(), r.end(), 0u) != r.end();
}

/// Miller-Rabin on an odd candidate above every small prime. The candidate's
/// Montgomery form is set up once and x stays in it through the squarings.
bool miller_rabin(const BigInt& candidate, CtrDrbg& drbg, int rounds) {
  // Write candidate - 1 = d * 2^r with d odd.
  const BigInt n_minus_1 = candidate - BigInt(1);
  std::size_t r = 0;
  while (!n_minus_1.bit(r)) ++r;
  const BigInt d = n_minus_1 >> r;

  const Montgomery mont(candidate);
  Montgomery::Residue minus_one{};
  mont.to_mont(n_minus_1, minus_one);
  Montgomery::Residue x{};
  const BigInt n_minus_3 = candidate - BigInt(3);
  for (int round = 0; round < rounds; ++round) {
    // Base a uniform in [2, candidate - 2].
    const BigInt a =
        BigInt::random_below(n_minus_3,
                             [&](std::span<std::uint8_t> out) {
                               drbg.generate(out);
                             }) +
        BigInt(2);
    mont.to_mont(a, x);
    mont.pow(x, d, x);
    if (mont.equal(x, mont.one()) || mont.equal(x, minus_one)) continue;
    bool composite = true;
    for (std::size_t i = 0; i + 1 < r; ++i) {
      mont.mul(x, x, x);
      if (mont.equal(x, minus_one)) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

}  // namespace

bool is_probable_prime(const BigInt& candidate, CtrDrbg& drbg, int rounds) {
  if (candidate.bit_length() <= 8) {
    // Below 256 the small-prime table is exhaustive.
    const std::uint64_t value = candidate.is_zero() ? 0 : candidate.limbs()[0];
    return std::find(kSmallPrimes.begin(), kSmallPrimes.end(), value) !=
           kSmallPrimes.end();
  }
  return !has_small_factor(residues_of(candidate)) &&
         miller_rabin(candidate, drbg, rounds);
}

BigInt generate_prime(std::size_t bits, CtrDrbg& drbg) {
  if (bits < 16) throw std::invalid_argument("generate_prime: bits too small");
  if (bits > BigInt::kMaxBits) {
    throw std::length_error("generate_prime: bits exceed BigInt capacity");
  }
  std::array<std::uint8_t, BigInt::kMaxBits / 8> storage{};
  const std::span<std::uint8_t> bytes(storage.data(), (bits + 7) / 8);
  for (;;) {
    drbg.generate(bytes);
    // Force exact bit length with the top two bits set, and oddness.
    const std::size_t top_bit = (bits - 1) % 8;
    bytes[0] &= static_cast<std::uint8_t>((1u << (top_bit + 1)) - 1);
    bytes[0] |= static_cast<std::uint8_t>(1u << top_bit);
    if (top_bit == 0 && bytes.size() > 1) {
      bytes[1] |= 0x80;
    } else if (top_bit > 0) {
      bytes[0] |= static_cast<std::uint8_t>(1u << (top_bit - 1));
    }
    bytes.back() |= 1;
    BigInt candidate = BigInt::from_bytes_be(bytes);
    // Walk odd numbers from the candidate; bounded walk keeps the
    // distribution near-uniform while avoiding fresh DRBG draws per test.
    // Every candidate is above 2^15, so trial division is just a zero
    // residue, and the residues step along with the walk.
    Residues residues = residues_of(candidate);
    for (int step = 0; step < 64; ++step) {
      if (!has_small_factor(residues) &&
          miller_rabin(candidate, drbg, kMillerRabinRounds)) {
        return candidate;
      }
      candidate = candidate + BigInt(2);
      add_two(residues);
    }
  }
}

RsaKeyPair rsa_generate(std::size_t modulus_bits, CtrDrbg& drbg) {
  if (modulus_bits < 128 || modulus_bits % 2 != 0) {
    throw std::invalid_argument("rsa_generate: modulus_bits must be even, >= 128");
  }
  const BigInt e(65537);
  const BigInt one(1);
  for (;;) {
    const BigInt p = generate_prime(modulus_bits / 2, drbg);
    BigInt q = generate_prime(modulus_bits / 2, drbg);
    if (p == q) continue;
    const BigInt n = p * q;
    if (n.bit_length() != modulus_bits) continue;
    const BigInt phi = (p - one) * (q - one);
    if (BigInt::gcd(e, phi) != one) continue;
    const auto d = BigInt::mod_inverse(e, phi);
    if (!d) continue;
    return RsaKeyPair{RsaPublicKey{n, e}, RsaPrivateKey{n, *d, p, q}};
  }
}

std::vector<std::uint8_t> rsa_encrypt(const RsaPublicKey& key,
                                      std::span<const std::uint8_t> plaintext,
                                      CtrDrbg& drbg) {
  const std::size_t k = key.modulus_bytes();
  if (plaintext.size() + 11 > k) {
    throw std::invalid_argument("rsa_encrypt: plaintext too long for modulus");
  }
  // EB = 00 || 02 || PS (nonzero random) || 00 || D
  std::vector<std::uint8_t> block(k, 0);
  block[1] = 0x02;
  const std::size_t pad_len = k - 3 - plaintext.size();
  for (std::size_t i = 0; i < pad_len; ++i) {
    std::uint8_t b = 0;
    do {
      std::array<std::uint8_t, 1> one_byte{};
      drbg.generate(one_byte);
      b = one_byte[0];
    } while (b == 0);
    block[2 + i] = b;
  }
  block[2 + pad_len] = 0x00;
  std::copy(plaintext.begin(), plaintext.end(),
            block.begin() + static_cast<long>(3 + pad_len - 1) + 1);

  const BigInt m = BigInt::from_bytes_be(block);
  const BigInt c = BigInt::modexp(m, key.e, key.n);
  std::vector<std::uint8_t> out = c.to_bytes_be();
  // Left-pad to the modulus size.
  out.insert(out.begin(), k - out.size(), 0);
  return out;
}

std::optional<std::vector<std::uint8_t>> rsa_decrypt(
    const RsaPrivateKey& key, std::span<const std::uint8_t> ciphertext) {
  const std::size_t k = (key.n.bit_length() + 7) / 8;
  if (ciphertext.size() != k) return std::nullopt;
  const BigInt c = BigInt::from_bytes_be(ciphertext);
  if (c >= key.n) return std::nullopt;
  const BigInt m = BigInt::modexp(c, key.d, key.n);
  std::vector<std::uint8_t> block = m.to_bytes_be();
  block.insert(block.begin(), k - block.size(), 0);

  if (block.size() < 11 || block[0] != 0x00 || block[1] != 0x02) {
    return std::nullopt;
  }
  std::size_t sep = 2;
  while (sep < block.size() && block[sep] != 0x00) ++sep;
  if (sep == block.size() || sep < 10) return std::nullopt;  // PS >= 8 bytes
  return std::vector<std::uint8_t>(block.begin() + static_cast<long>(sep) + 1,
                                   block.end());
}

}  // namespace ibsec::crypto
