// RSA public-key encryption for secret-key distribution.
//
// The paper's confidentiality story is deliberately narrow: "we encrypt only
// secret keys to minimize performance degradation". The Subnet Manager (or
// an initiating QP) wraps a 16-byte authentication secret with the
// recipient's public key; bulk data is never encrypted. This module
// implements the required primitive end to end: Miller-Rabin prime
// generation, keypair construction with e = 65537, and PKCS#1-v1.5-style
// type-2 random padding for the wrap operation.
//
// Every Channel Adapter generates its keypair when it is constructed, from
// its own seeded DRBG, so keygen is most of scenario setup. Scenarios use
// 256-bit moduli (ScenarioConfig::rsa_bits); the tests also exercise 512-
// and 768-bit keys. The prime search allocates nothing: candidates are
// drawn into stack buffers, trial division steps the residues modulo the
// small primes along the odd-candidate walk instead of dividing again, and
// Miller-Rabin sets up the candidate's Montgomery form once and keeps each
// round's value in it through the squarings. Keys and the DRBG draw order
// are a pure function of the seed: a CA's later Q_Key draws depend on them.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "crypto/bignum.h"
#include "crypto/ctr_drbg.h"

namespace ibsec::crypto {

struct RsaPublicKey {
  BigInt n;
  BigInt e;
  /// Modulus size in whole bytes (ciphertext length).
  std::size_t modulus_bytes() const { return (n.bit_length() + 7) / 8; }
};

struct RsaPrivateKey {
  BigInt n;
  BigInt d;
  BigInt p;
  BigInt q;
};

struct RsaKeyPair {
  RsaPublicKey public_key;
  RsaPrivateKey private_key;
};

/// Miller-Rabin rounds generate_prime runs per candidate.
inline constexpr int kMillerRabinRounds = 24;

/// Miller-Rabin with `rounds` random bases (error <= 4^-rounds), preceded by
/// trial division against small primes.
bool is_probable_prime(const BigInt& candidate, CtrDrbg& drbg,
                       int rounds = kMillerRabinRounds);

/// Random prime with exactly `bits` bits (top two bits set so products reach
/// the full modulus width).
BigInt generate_prime(std::size_t bits, CtrDrbg& drbg);

/// Generates an RSA keypair with a modulus of `modulus_bits` (must be >= 128
/// and even).
RsaKeyPair rsa_generate(std::size_t modulus_bits, CtrDrbg& drbg);

/// Encrypts `plaintext` (at most modulus_bytes - 11 bytes) with type-2
/// random padding. Returns modulus_bytes ciphertext bytes.
std::vector<std::uint8_t> rsa_encrypt(const RsaPublicKey& key,
                                      std::span<const std::uint8_t> plaintext,
                                      CtrDrbg& drbg);

/// Inverse of rsa_encrypt; std::nullopt if the padding is malformed (wrong
/// key or corrupted ciphertext).
std::optional<std::vector<std::uint8_t>> rsa_decrypt(
    const RsaPrivateKey& key, std::span<const std::uint8_t> ciphertext);

}  // namespace ibsec::crypto
