// RSA keygen / encrypt / decrypt: primality testing, roundtrips at several
// modulus sizes, padding robustness, and failure modes (wrong key, tampered
// ciphertext).
#include <gtest/gtest.h>

#include "common/hex.h"
#include "crypto/rsa.h"

namespace ibsec::crypto {
namespace {

TEST(Primality, KnownSmallPrimesAndComposites) {
  CtrDrbg drbg(std::uint64_t{701});
  for (std::uint32_t p : {2u, 3u, 5u, 7u, 97u, 251u, 65537u}) {
    EXPECT_TRUE(is_probable_prime(BigInt(p), drbg)) << p;
  }
  for (std::uint32_t c : {0u, 1u, 4u, 9u, 15u, 91u, 561u, 65535u}) {
    EXPECT_FALSE(is_probable_prime(BigInt(c), drbg)) << c;
  }
}

TEST(Primality, CarmichaelNumbersRejected) {
  // Carmichael numbers fool Fermat tests; Miller-Rabin must reject them.
  CtrDrbg drbg(std::uint64_t{702});
  for (std::uint32_t carmichael : {561u, 1105u, 1729u, 2465u, 2821u, 6601u}) {
    EXPECT_FALSE(is_probable_prime(BigInt(carmichael), drbg)) << carmichael;
  }
}

TEST(Primality, LargeKnownPrime) {
  // 2^127 - 1 is a Mersenne prime.
  const BigInt m127 = (BigInt(1) << 127) - BigInt(1);
  CtrDrbg drbg(std::uint64_t{703});
  EXPECT_TRUE(is_probable_prime(m127, drbg));
  EXPECT_FALSE(is_probable_prime(m127 - BigInt(2), drbg));
}

TEST(GeneratePrime, ExactBitLengthAndPrimality) {
  CtrDrbg drbg(std::uint64_t{704});
  for (std::size_t bits : {64u, 128u, 256u}) {
    const BigInt p = generate_prime(bits, drbg);
    EXPECT_EQ(p.bit_length(), bits);
    EXPECT_TRUE(p.is_odd());
    EXPECT_TRUE(is_probable_prime(p, drbg));
  }
}

TEST(Rsa, KeygenProducesConsistentPair) {
  CtrDrbg drbg(std::uint64_t{705});
  const RsaKeyPair kp = rsa_generate(512, drbg);
  EXPECT_EQ(kp.public_key.n.bit_length(), 512u);
  EXPECT_EQ(kp.public_key.n, kp.private_key.p * kp.private_key.q);
  // e*d == 1 mod phi.
  const BigInt phi = (kp.private_key.p - BigInt(1)) *
                     (kp.private_key.q - BigInt(1));
  EXPECT_EQ((kp.public_key.e * kp.private_key.d) % phi, BigInt(1));
}

TEST(Rsa, EncryptDecryptRoundTrip) {
  CtrDrbg drbg(std::uint64_t{706});
  const RsaKeyPair kp = rsa_generate(512, drbg);
  const auto secret = ascii_bytes("16-byte-secret!!");
  const auto ct = rsa_encrypt(kp.public_key, secret, drbg);
  EXPECT_EQ(ct.size(), kp.public_key.modulus_bytes());
  const auto pt = rsa_decrypt(kp.private_key, ct);
  ASSERT_TRUE(pt.has_value());
  EXPECT_EQ(*pt, secret);
}

TEST(Rsa, RandomPaddingMakesCiphertextsDistinct) {
  CtrDrbg drbg(std::uint64_t{707});
  const RsaKeyPair kp = rsa_generate(512, drbg);
  const auto secret = ascii_bytes("same plaintext");
  const auto c1 = rsa_encrypt(kp.public_key, secret, drbg);
  const auto c2 = rsa_encrypt(kp.public_key, secret, drbg);
  EXPECT_NE(c1, c2);  // type-2 padding randomizes
  EXPECT_EQ(rsa_decrypt(kp.private_key, c1), rsa_decrypt(kp.private_key, c2));
}

TEST(Rsa, WrongKeyFailsCleanly) {
  CtrDrbg drbg(std::uint64_t{708});
  const RsaKeyPair kp1 = rsa_generate(512, drbg);
  const RsaKeyPair kp2 = rsa_generate(512, drbg);
  const auto ct = rsa_encrypt(kp1.public_key, ascii_bytes("secret"), drbg);
  const auto pt = rsa_decrypt(kp2.private_key, ct);
  // Either padding check fails (expected) or decrypt yields garbage != secret.
  if (pt.has_value()) {
    EXPECT_NE(*pt, ascii_bytes("secret"));
  } else {
    SUCCEED();
  }
}

TEST(Rsa, TamperedCiphertextFails) {
  CtrDrbg drbg(std::uint64_t{709});
  const RsaKeyPair kp = rsa_generate(512, drbg);
  auto ct = rsa_encrypt(kp.public_key, ascii_bytes("secret"), drbg);
  ct[ct.size() / 2] ^= 0x01;
  const auto pt = rsa_decrypt(kp.private_key, ct);
  if (pt.has_value()) {
    EXPECT_NE(*pt, ascii_bytes("secret"));
  } else {
    SUCCEED();
  }
}

TEST(Rsa, WrongLengthCiphertextRejected) {
  CtrDrbg drbg(std::uint64_t{710});
  const RsaKeyPair kp = rsa_generate(512, drbg);
  std::vector<std::uint8_t> bogus(kp.public_key.modulus_bytes() - 1, 0x42);
  EXPECT_FALSE(rsa_decrypt(kp.private_key, bogus).has_value());
}

TEST(Rsa, PlaintextTooLongThrows) {
  CtrDrbg drbg(std::uint64_t{711});
  const RsaKeyPair kp = rsa_generate(512, drbg);
  std::vector<std::uint8_t> too_long(kp.public_key.modulus_bytes() - 10, 0x11);
  EXPECT_THROW((void)rsa_encrypt(kp.public_key, too_long, drbg),
               std::invalid_argument);
}

TEST(Rsa, MaximumLengthPlaintext) {
  CtrDrbg drbg(std::uint64_t{712});
  const RsaKeyPair kp = rsa_generate(512, drbg);
  std::vector<std::uint8_t> max_pt(kp.public_key.modulus_bytes() - 11, 0xA5);
  const auto ct = rsa_encrypt(kp.public_key, max_pt, drbg);
  const auto pt = rsa_decrypt(kp.private_key, ct);
  ASSERT_TRUE(pt.has_value());
  EXPECT_EQ(*pt, max_pt);
}

TEST(Rsa, EmptyPlaintextRoundTrip) {
  CtrDrbg drbg(std::uint64_t{713});
  const RsaKeyPair kp = rsa_generate(512, drbg);
  const auto ct = rsa_encrypt(kp.public_key, {}, drbg);
  const auto pt = rsa_decrypt(kp.private_key, ct);
  ASSERT_TRUE(pt.has_value());
  EXPECT_TRUE(pt->empty());
}

// Known-answer keys, pinned from the vector-limb schoolbook implementation.
// Keys must stay bit-for-bit identical across arithmetic rewrites, and so
// must the DRBG draw sequence: a CA's UD Q_Keys are drawn from the same DRBG
// right after keygen, so the next_u64() column pins the draw order.
struct CaKeyAnswer {
  const char* n;
  const char* d;
  std::uint64_t next_draw;
};

constexpr CaKeyAnswer kCaKeysSeed2005[16] = {
    {"e9d887346ba729927de0c7eaabb7c10dbd0b918650e1e0206100c21685bc538f",
     "e19c4b4db2f353338788dfb8343613e5122243270aae34b20f479bf92ecc78a1",
     0xbdfa65ee4d7b11f0ULL},
    {"d7d3a4256724ff068e5a85f576ab5f62bca2fb63572b2dd4aa3fcd54b9d13287",
     "3e0cf11277d7212327664b41493ef80b098fe52ee323b48510eeab72c5ac6831",
     0x68aae29342a7e67fULL},
    {"a21d6d2b40ce6f4fc72b78112603e22a3d9de04ea717f6a5ea7077bb38382257",
     "7a4e812274ce4a24823b45668aabbb60b79b5d2e33dc9986c731576309f05861",
     0x527c42ec6240aed4ULL},
    {"c0368039066d554ef0477ac535c23b4c118e092ab25a6336dbe074ea3255cb83",
     "6a71841e904d99d18644bf5b5903001c8f66b33ee4a923e4abbfb7da0c4ccea1",
     0x5cf033f0ce0ba728ULL},
    {"b9014d1b5e31a14708b98aa41bf782cae5d0c008052b9fd5957ef2d706c13ad7",
     "df4db2c455ed91bd2bcac88d4d3473a8663713241dfc2353896b77c45a4079",
     0x51e21576396eb789ULL},
    {"b4cb5346f307c49dfc82cfe5c5efd20b915d333ba2fd9288964c3000e74b18fb",
     "5041f68d07740a576bf21222595515f3a70cab1822e5ada7ac7ce053592c8b51",
     0xd32e9193b1a50837ULL},
    {"c693c5dd67d36e4435d4de0b8ac5675c7887ea2c20b142dc34583583d3053b07",
     "89f7d5fbd4cd63c964957789116bc23995636024d8a2a1a2263a9ad5dce067d1",
     0xe81f1a1efb139f5aULL},
    {"c52216b12571730172bbd775b3e82688011294faef31b47f4a02262a3aa3d6e1",
     "9eb973cbee7a0a3f8041fe99a6e1a52331307a61525ef56c0c2b49e5d3344a81",
     0xb014c2103d48211aULL},
    {"a0e46027397efbda2b005d5353f694addaa695518449969e35671ee1415e61e5",
     "467febb62456852b32fe84e6577b4be8344f74c69b17ea1e93e8bb4d1a89485d",
     0xf09cdca8f8dd442bULL},
    {"d1dd1698073585b7c8d758f90835a027acb1cda8cf03c4370043d630d207ae21",
     "23d2bc8f98f36eeeef4eab365f4b6019f6714fb17dd8e801fa876ed9a74c0f11",
     0x0b9cf1508893ac0bULL},
    {"e47fc83271176392a58987e078fb613c9b64d2896e203facc5ddd972059230af",
     "5abf9516d36b62945f421bc0becbb775c672e32dddbe2499b40daffec60cbfa1",
     0xf240f638c1155a4dULL},
    {"f6e18db3f1bc4a48d2cacac2425192de1512060edf5e81210e693c57fc38dc0f",
     "4a418d5d92580fffd7672795465d42cef247defc8c80bee72d14b0a3161289",
     0x14ee244e16e58fedULL},
    {"e9bdb9b75fe2ccd9571cc18d6d5c9e87ae3f4f51340a29a2139119185dea8529",
     "a143e4fe3f899b0bd8ae5e5bd53831a6d92c527c3137df623a57e057e208449",
     0x41582deb4665211bULL},
    {"d2e29d46d8952e40dc0afeea2dbce8f683a4347b61e515a54b13ef4ffa0b8be9",
     "81ac9d7f91f071c7aa470ca71d46db8c9477f1374f4985db7e7398afb5c6819d",
     0x0bc4a73a43551346ULL},
    {"c0c808ff4d00c6ba21d825034d1020c06f8c3360aca931ed1db19ccd178155c3",
     "2e024fab669c4dd1746c5a810c2e5232502736395881c7b45abaf26b8d5847c1",
     0xa2b4e1fd58242ed3ULL},
    {"e5a23d80a466b056e92807a7bdc666818ea8d0a5b6d0f386d31f5c9a4470cefb",
     "2907ca31782e99078e758698a44215026e9219e1ba6a5906926037d52bc5a7e1",
     0x24aaa7f4c91eecb0ULL}};

TEST(RsaKnownAnswer, CaKeysAtSeed2005) {
  // ChannelAdapter seeds each CA's DRBG from the scenario seed and node id.
  for (int node = 0; node < 16; ++node) {
    CtrDrbg drbg(std::uint64_t{2005} ^
                 (0x1BA5EC0000ULL + static_cast<std::uint64_t>(node)));
    const RsaKeyPair kp = rsa_generate(256, drbg);
    const CaKeyAnswer& want = kCaKeysSeed2005[node];
    EXPECT_EQ(kp.public_key.n.to_hex(), want.n) << "node " << node;
    EXPECT_EQ(kp.private_key.d.to_hex(), want.d) << "node " << node;
    EXPECT_EQ(drbg.next_u64(), want.next_draw) << "node " << node;
  }
}

TEST(RsaKnownAnswer, WiderModuli) {
  const struct {
    std::size_t bits;
    const char* n;
  } cases[] = {
      {512,
       "b3eb2928079dc025f1d1c59e52c60c7d1f1bfe70495c462cd826e94669c025be"
       "78224a9559e4a8ee655fdf125ea28066d17d5f30c5deac84ea3dd432b938c4a5"},
      {768,
       "ad74892f7870be5bf60c3fc60b33291df35fd84ee7a8ca5af01aed5621f61a41"
       "2c861e85a67da9a4744ffb222c5d20168eb8721fa815a72340f0454cc27a739b"
       "d06c5041b6aa33f8824593df28b16a5844d5cc5eb65e54861fcb13d63734484b"},
  };
  for (const auto& c : cases) {
    CtrDrbg drbg(std::uint64_t{2005});
    EXPECT_EQ(rsa_generate(c.bits, drbg).public_key.n.to_hex(), c.n) << c.bits;
  }
}

class RsaModulusSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RsaModulusSweep, RoundTripAtSize) {
  CtrDrbg drbg(std::uint64_t{714} + GetParam());
  const RsaKeyPair kp = rsa_generate(GetParam(), drbg);
  const auto secret = ascii_bytes("partition-key-01");
  const auto ct = rsa_encrypt(kp.public_key, secret, drbg);
  const auto pt = rsa_decrypt(kp.private_key, ct);
  ASSERT_TRUE(pt.has_value());
  EXPECT_EQ(*pt, secret);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RsaModulusSweep,
                         ::testing::Values(256, 512, 768));

}  // namespace
}  // namespace ibsec::crypto
