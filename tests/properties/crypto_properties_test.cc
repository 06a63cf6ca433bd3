// Property sweeps over the cryptographic substrates: algebraic identities
// of BigInt, Paillier homomorphisms, Shamir threshold behaviour, secure-sum
// correctness, and PIR correctness across parameter grids.

#include <numeric>

#include <gtest/gtest.h>

#include "pir/it_pir.h"
#include "pir/recursive_pir.h"
#include "smc/paillier.h"
#include "smc/secure_sum.h"
#include "smc/shamir.h"
#include "util/bigint.h"

namespace tripriv {
namespace {

// ---------------------------------------------------------------- BigInt

class BigIntAlgebra : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BigIntAlgebra, RingAxiomsHoldOnRandomOperands) {
  Rng rng(GetParam());
  for (int i = 0; i < 40; ++i) {
    BigInt a = BigInt::Random(1 + rng.UniformU64(160), &rng);
    BigInt b = BigInt::Random(1 + rng.UniformU64(160), &rng);
    BigInt c = BigInt::Random(1 + rng.UniformU64(160), &rng);
    if (rng.Bernoulli(0.5)) a = -a;
    if (rng.Bernoulli(0.5)) b = -b;
    if (rng.Bernoulli(0.5)) c = -c;
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a - a, BigInt(0));
    EXPECT_EQ(a + BigInt(0), a);
    EXPECT_EQ(a * BigInt(1), a);
    EXPECT_EQ(a * BigInt(0), BigInt(0));
  }
}

TEST_P(BigIntAlgebra, ShiftsAgreeWithPowersOfTwo) {
  Rng rng(GetParam() ^ 0xABCD);
  for (int i = 0; i < 30; ++i) {
    BigInt a = BigInt::Random(1 + rng.UniformU64(120), &rng);
    const size_t s = rng.UniformU64(70);
    BigInt pow2(1);
    for (size_t j = 0; j < s; ++j) pow2 = pow2 * BigInt(2);
    EXPECT_EQ(a << s, a * pow2);
    EXPECT_EQ((a << s) >> s, a);
    EXPECT_EQ(a >> s, a / pow2);
  }
}

TEST_P(BigIntAlgebra, ModularIdentities) {
  Rng rng(GetParam() ^ 0x5EED);
  const BigInt p = BigInt::RandomPrime(64, &rng);
  for (int i = 0; i < 25; ++i) {
    const BigInt a = BigInt::RandomBelow(p, &rng);
    const BigInt b = BigInt::RandomBelow(p, &rng);
    const BigInt e1 = BigInt::RandomBelow(BigInt(1000), &rng);
    const BigInt e2 = BigInt::RandomBelow(BigInt(1000), &rng);
    // (a*b) mod p distributes; modexp laws.
    EXPECT_EQ(BigInt::ModMul(a, b, p), (a * b).Mod(p));
    EXPECT_EQ(BigInt::ModExp(a, e1 + e2, p),
              BigInt::ModMul(BigInt::ModExp(a, e1, p),
                             BigInt::ModExp(a, e2, p), p));
    EXPECT_EQ(BigInt::ModExp(BigInt::ModExp(a, e1, p), e2, p),
              BigInt::ModExp(a, e1 * e2, p));
    if (!a.IsZero()) {
      auto inv = BigInt::ModInverse(a, p);
      ASSERT_TRUE(inv.ok());
      EXPECT_EQ(BigInt::ModMul(a, *inv, p), BigInt(1));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntAlgebra,
                         ::testing::Values(1u, 42u, 20240706u));

// --------------------------------------------------------------- Paillier

class PaillierSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(PaillierSweep, HomomorphismAcrossKeySizes) {
  Rng rng(GetParam());
  auto keys = PaillierGenerateKeys(GetParam(), &rng);
  ASSERT_TRUE(keys.ok());
  for (int i = 0; i < 10; ++i) {
    const BigInt m1 = BigInt::RandomBelow(keys->pub.n, &rng);
    const BigInt m2 = BigInt::RandomBelow(keys->pub.n, &rng);
    const BigInt k = BigInt::RandomBelow(BigInt(1000), &rng);
    auto c1 = PaillierEncrypt(keys->pub, m1, &rng);
    auto c2 = PaillierEncrypt(keys->pub, m2, &rng);
    ASSERT_TRUE(c1.ok() && c2.ok());
    auto sum = PaillierDecrypt(keys->pub, keys->priv,
                               PaillierAdd(keys->pub, *c1, *c2));
    ASSERT_TRUE(sum.ok());
    EXPECT_EQ(*sum, (m1 + m2).Mod(keys->pub.n));
    auto scaled = PaillierDecrypt(keys->pub, keys->priv,
                                  PaillierMulPlain(keys->pub, *c1, k));
    ASSERT_TRUE(scaled.ok());
    EXPECT_EQ(*scaled, (m1 * k).Mod(keys->pub.n));
  }
}

INSTANTIATE_TEST_SUITE_P(KeyBits, PaillierSweep,
                         ::testing::Values(size_t{128}, size_t{192},
                                           size_t{256}));

// ----------------------------------------------------------------- Shamir

struct ShamirParam {
  size_t n;
  size_t t;
};

class ShamirSweep : public ::testing::TestWithParam<ShamirParam> {};

TEST_P(ShamirSweep, EveryTSubsetReconstructs) {
  const auto [n, t] = GetParam();
  Rng rng(static_cast<uint64_t>(n * 100 + t));
  const BigInt prime = BigInt::FromString("2305843009213693951").value();
  const BigInt secret = BigInt::RandomBelow(prime, &rng);
  auto shares = ShamirShareSecret(secret, n, t, prime, &rng);
  ASSERT_TRUE(shares.ok());
  // Try every contiguous window plus a few random subsets of size t.
  for (size_t start = 0; start + t <= n; ++start) {
    std::vector<ShamirShare> subset(shares->begin() + start,
                                    shares->begin() + start + t);
    auto back = ShamirReconstruct(subset, prime);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, secret);
  }
  for (int trial = 0; trial < 5; ++trial) {
    auto picks = rng.SampleWithoutReplacement(n, t);
    std::vector<ShamirShare> subset;
    for (size_t i : picks) subset.push_back((*shares)[i]);
    auto back = ShamirReconstruct(subset, prime);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, secret);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThresholdGrid, ShamirSweep,
    ::testing::Values(ShamirParam{3, 2}, ShamirParam{5, 3}, ShamirParam{7, 4},
                      ShamirParam{9, 2}, ShamirParam{6, 6}),
    [](const ::testing::TestParamInfo<ShamirParam>& info) {
      return "n" + std::to_string(info.param.n) + "t" +
             std::to_string(info.param.t);
    });

// ------------------------------------------------------------- secure sum

class SecureSumSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(SecureSumSweep, MatchesPlainSumForRandomInputs) {
  const size_t parties = GetParam();
  Rng rng(parties * 31);
  for (int round = 0; round < 5; ++round) {
    PartyNetwork net(parties, rng.NextU64());
    std::vector<std::vector<uint64_t>> counts(parties,
                                              std::vector<uint64_t>(8));
    std::vector<uint64_t> expected(8, 0);
    for (auto& vec : counts) {
      for (size_t j = 0; j < vec.size(); ++j) {
        vec[j] = rng.UniformU64(1000000);
        expected[j] += vec[j];
      }
    }
    auto sums = SecureSumCounts(&net, counts);
    ASSERT_TRUE(sums.ok());
    EXPECT_EQ(*sums, expected);
  }
}

TEST_P(SecureSumSweep, RepeatedRoundsOnOneNetworkStayCorrect) {
  // Regression for the mailbox-drain bug: multiple secure sums of
  // DIFFERENT widths over the same network must not interfere.
  const size_t parties = GetParam();
  PartyNetwork net(parties, 99);
  for (size_t width : {5u, 1u, 9u, 3u}) {
    std::vector<std::vector<uint64_t>> counts(parties,
                                              std::vector<uint64_t>(width, 2));
    auto sums = SecureSumCounts(&net, counts);
    ASSERT_TRUE(sums.ok()) << "width " << width;
    for (uint64_t v : *sums) EXPECT_EQ(v, 2 * parties);
  }
}

INSTANTIATE_TEST_SUITE_P(Parties, SecureSumSweep,
                         ::testing::Values(size_t{2}, size_t{3}, size_t{5},
                                           size_t{9}));

// ------------------------------------------------------------------- PIR

struct PirParam {
  size_t n;
  size_t record_size;
};

class PirSweep : public ::testing::TestWithParam<PirParam> {
 protected:
  /// Retrieves every index through RecursivePirRead over 2^d replicas.
  void SweepAllIndices(size_t d, uint64_t seed) {
    const auto [n, record_size] = GetParam();
    Rng rng(seed);
    std::vector<std::vector<uint8_t>> records(
        n, std::vector<uint8_t>(record_size));
    for (auto& r : records) {
      for (auto& b : r) b = static_cast<uint8_t>(rng.NextU64());
    }
    auto g = HypercubeGeometry::Balanced(n, d);
    ASSERT_TRUE(g.ok());
    std::vector<XorPirServer> servers;
    for (size_t s = 0; s < g->num_servers(); ++s) {
      servers.push_back(*XorPirServer::Create(records));
    }
    std::vector<XorPirServer*> ptrs;
    for (auto& server : servers) ptrs.push_back(&server);
    for (size_t i = 0; i < n; ++i) {
      auto got = RecursivePirRead(ptrs, *g, i, &rng);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, records[i]) << "d=" << d << " index " << i;
    }
  }
};

TEST_P(PirSweep, TwoServerCorrectForAllIndices) {
  SweepAllIndices(/*d=*/1, GetParam().n * 7 + GetParam().record_size);
}

TEST_P(PirSweep, FourServerCorrectForAllIndices) {
  SweepAllIndices(/*d=*/2, GetParam().n * 13 + GetParam().record_size);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PirSweep,
    ::testing::Values(PirParam{1, 8}, PirParam{2, 8}, PirParam{7, 3},
                      PirParam{16, 16}, PirParam{65, 5}, PirParam{100, 1}),
    [](const ::testing::TestParamInfo<PirParam>& info) {
      return "n" + std::to_string(info.param.n) + "rec" +
             std::to_string(info.param.record_size);
    });

}  // namespace
}  // namespace tripriv
