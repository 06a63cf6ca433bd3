// Tests for information-theoretic PIR, computational PIR, and keyword PIR.
// The 2-server scheme is RecursivePirRead at d = 1: replica 0 expands a
// random subset from a 64-bit seed, replica 1 receives it with the target
// flipped; the 4-server cube is its d = 2 case.

#include <gtest/gtest.h>

#include "pir/cpir.h"
#include "pir/it_pir.h"
#include "pir/keyword_pir.h"
#include "pir/recursive_pir.h"

namespace tripriv {
namespace {

std::vector<std::vector<uint8_t>> MakeRecords(size_t n, size_t size) {
  std::vector<std::vector<uint8_t>> records(n, std::vector<uint8_t>(size));
  Rng rng(99);
  for (auto& r : records) {
    for (auto& b : r) b = static_cast<uint8_t>(rng.NextU64());
  }
  return records;
}

/// The d = 1 geometry of an n-record database: one axis of n cells.
HypercubeGeometry Flat(size_t n) {
  auto g = HypercubeGeometry::Balanced(n, 1);
  TRIPRIV_CHECK(g.ok());
  return *g;
}

TEST(TwoServerPirTest, RetrievesEveryIndex) {
  auto records = MakeRecords(37, 16);
  auto a = XorPirServer::Create(records);
  auto b = XorPirServer::Create(records);
  ASSERT_TRUE(a.ok() && b.ok());
  const HypercubeGeometry g = Flat(records.size());
  Rng rng(1);
  for (size_t i = 0; i < records.size(); ++i) {
    auto got = RecursivePirRead({&*a, &*b}, g, i, &rng);
    ASSERT_TRUE(got.ok()) << i;
    EXPECT_EQ(*got, records[i]) << i;
  }
}

TEST(TwoServerPirTest, StatsAreReported) {
  auto records = MakeRecords(64, 8);
  auto a = XorPirServer::Create(records);
  auto b = XorPirServer::Create(records);
  ASSERT_TRUE(a.ok() && b.ok());
  Rng rng(2);
  PirStats stats;
  ASSERT_TRUE(
      RecursivePirRead({&*a, &*b}, Flat(64), 5, &rng, nullptr, &stats).ok());
  // Replica 0 gets the 64-bit seed, replica 1 the n-bit flipped bitmap.
  EXPECT_EQ(stats.upload_bits, 64 + 64u);
  EXPECT_EQ(stats.download_bits, 2 * 8 * 8u);
}

TEST(TwoServerPirTest, SingleServerViewIsTargetIndependent) {
  // Empirical privacy check: the marginal distribution of each selection
  // bit seen by either replica must be ~Bernoulli(1/2) regardless of the
  // target — for replica 0 that is the bitmap it expanded from its seed,
  // for replica 1 the explicit bitmap with the target flipped.
  auto records = MakeRecords(16, 4);
  auto a = XorPirServer::Create(records);
  auto b = XorPirServer::Create(records);
  ASSERT_TRUE(a.ok() && b.ok());
  a->EnableObservationLog(1);
  b->EnableObservationLog(1);
  const HypercubeGeometry g = Flat(records.size());
  Rng rng(3);
  const size_t trials = 600;
  std::vector<size_t> bit_counts_a(16, 0);
  std::vector<size_t> bit_counts_b(16, 0);
  for (size_t t = 0; t < trials; ++t) {
    ASSERT_TRUE(RecursivePirRead({&*a, &*b}, g, /*index=*/7, &rng).ok());
    const auto& view_a = a->last_observed_query();
    const auto& view_b = b->last_observed_query();
    for (size_t i = 0; i < 16; ++i) {
      bit_counts_a[i] += (view_a[i / 8] >> (i % 8)) & 1u;
      bit_counts_b[i] += (view_b[i / 8] >> (i % 8)) & 1u;
    }
  }
  for (size_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(static_cast<double>(bit_counts_a[i]) / trials, 0.5, 0.08)
        << "replica 0, bit " << i;
    EXPECT_NEAR(static_cast<double>(bit_counts_b[i]) / trials, 0.5, 0.08)
        << "replica 1, bit " << i;
  }
}

TEST(RandomSelectionBitsTest, PaddingBitsAreZeroAtAwkwardSizes) {
  // Regression: the word-filled generator must still zero the padding bits
  // of the last byte, or observed queries stop being canonical and the
  // out-of-range record positions get selected.
  for (size_t n : {1u, 7u, 13u, 37u, 63u, 65u, 127u, 1000u}) {
    Rng rng(21 + n);
    for (int trial = 0; trial < 50; ++trial) {
      const auto bits = RandomSelectionBits(n, &rng);
      ASSERT_EQ(bits.size(), (n + 7) / 8);
      if (n % 8 != 0) {
        EXPECT_EQ(bits.back() & ~((1u << (n % 8)) - 1u), 0u) << "n=" << n;
      }
    }
  }
}

TEST(RandomSelectionBitsTest, FillsEightBytesPerDraw) {
  // Regression for the draw-per-byte bug: 64 selection bits must cost
  // exactly one NextU64, 65 bits exactly two. Two generators from the same
  // seed stay in lockstep iff the draw counts match.
  Rng rng_a(31);
  Rng rng_b(31);
  (void)RandomSelectionBits(64, &rng_a);
  (void)rng_b.NextU64();
  EXPECT_EQ(rng_a.NextU64(), rng_b.NextU64());

  Rng rng_c(33);
  Rng rng_d(33);
  (void)RandomSelectionBits(65, &rng_c);
  (void)rng_d.NextU64();
  (void)rng_d.NextU64();
  EXPECT_EQ(rng_c.NextU64(), rng_d.NextU64());
}

TEST(XorPirServerTest, ObservationLogIsOptInAndBounded) {
  auto records = MakeRecords(24, 4);
  auto server = XorPirServer::Create(records);
  ASSERT_TRUE(server.ok());
  Rng rng(41);

  // Off by default: queries are counted but nothing is retained.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(server->Answer(RandomSelectionBits(24, &rng)).ok());
  }
  EXPECT_FALSE(server->observation_enabled());
  EXPECT_EQ(server->queries_answered(), 5u);
  EXPECT_EQ(server->num_observed(), 0u);

  // Enabled with capacity 3: the ring keeps the 3 most recent selections,
  // oldest first, while the counter keeps the full total.
  server->EnableObservationLog(3);
  std::vector<std::vector<uint8_t>> sent;
  for (int i = 0; i < 7; ++i) {
    sent.push_back(RandomSelectionBits(24, &rng));
    ASSERT_TRUE(server->Answer(sent.back()).ok());
  }
  EXPECT_TRUE(server->observation_enabled());
  EXPECT_EQ(server->queries_answered(), 12u);
  ASSERT_EQ(server->num_observed(), 3u);
  EXPECT_EQ(server->observed_query(0), sent[4]);
  EXPECT_EQ(server->observed_query(1), sent[5]);
  EXPECT_EQ(server->observed_query(2), sent[6]);
  EXPECT_EQ(server->last_observed_query(), sent[6]);
}

TEST(TwoServerPirTest, RejectsBadInput) {
  auto records = MakeRecords(8, 4);
  auto a = XorPirServer::Create(records);
  auto b = XorPirServer::Create(MakeRecords(9, 4));
  ASSERT_TRUE(a.ok() && b.ok());
  Rng rng(4);
  const HypercubeGeometry g = Flat(records.size());
  EXPECT_EQ(RecursivePirRead({&*a, &*b}, g, 0, &rng).status().code(),
            StatusCode::kInvalidArgument);  // size mismatch
  auto b2 = XorPirServer::Create(records);
  ASSERT_TRUE(b2.ok());
  EXPECT_EQ(RecursivePirRead({&*a, &*b2}, g, 8, &rng).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(RecursivePirRead({&*a}, g, 0, &rng).status().code(),
            StatusCode::kInvalidArgument);  // d = 1 needs two replicas
  EXPECT_FALSE(XorPirServer::Create({}).ok());
  EXPECT_FALSE(XorPirServer::Create({{}}).ok());
  EXPECT_FALSE(XorPirServer::Create({{1, 2}, {3}}).ok());
}

// The 4-server cube is RecursivePirRead at d = 2.
TEST(FourServerCubePirTest, RetrievesEveryIndex) {
  auto records = MakeRecords(30, 8);  // non-square count exercises padding
  std::vector<XorPirServer> servers;
  for (int i = 0; i < 4; ++i) {
    auto s = XorPirServer::Create(records);
    ASSERT_TRUE(s.ok());
    servers.push_back(std::move(*s));
  }
  auto g = HypercubeGeometry::Balanced(records.size(), 2);
  ASSERT_TRUE(g.ok());
  Rng rng(5);
  const std::vector<XorPirServer*> ptrs{&servers[0], &servers[1],
                                        &servers[2], &servers[3]};
  for (size_t i = 0; i < records.size(); ++i) {
    PirStats stats;
    auto got = RecursivePirRead(ptrs, *g, i, &rng, nullptr, &stats);
    ASSERT_TRUE(got.ok()) << i;
    EXPECT_EQ(*got, records[i]) << i;
    // Upload is O(sqrt(n)): the 64-bit seed plus 2 axes of side 6 for each
    // of the other three servers.
    EXPECT_EQ(stats.upload_bits, 64 + 3 * 2 * 6u);
  }
}

TEST(CpirTest, RetrievesEveryEntry) {
  std::vector<uint64_t> db;
  for (uint64_t i = 0; i < 23; ++i) db.push_back(i * i + 1);
  auto server = CpirServer::Create(db);
  ASSERT_TRUE(server.ok());
  auto client = CpirClient::Create(192, 7);
  ASSERT_TRUE(client.ok());
  for (size_t i = 0; i < db.size(); ++i) {
    auto got = client->Read(&*server, i);
    ASSERT_TRUE(got.ok()) << i;
    EXPECT_EQ(*got, db[i]) << i;
  }
  EXPECT_EQ(server->queries_served(), db.size());
}

TEST(CpirTest, CommunicationIsSquareRootShaped) {
  std::vector<uint64_t> db(100, 5);
  auto server = CpirServer::Create(db);
  ASSERT_TRUE(server.ok());
  auto client = CpirClient::Create(192, 9);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Read(&*server, 42).ok());
  EXPECT_EQ(client->last_upload_ciphertexts(), 10u);   // rows
  EXPECT_EQ(client->last_download_ciphertexts(), 10u); // cols
}

/// The per-column loop CpirServer::Answer ran before it called
/// PaillierFold, kept as the reference for its ciphertexts.
std::vector<BigInt> ReferenceCpirAnswer(const PaillierPublicKey& pub,
                                        const std::vector<uint64_t>& database,
                                        size_t rows, size_t cols,
                                        const std::vector<BigInt>& selector) {
  std::vector<BigInt> out;
  for (size_t j = 0; j < cols; ++j) {
    BigInt acc(1);
    bool have_factor = false;
    for (size_t i = 0; i < rows; ++i) {
      const size_t idx = i * cols + j;
      if (idx >= database.size()) continue;
      const uint64_t entry = database[idx];
      if (entry == 0) continue;
      const BigInt factor =
          PaillierMulPlain(pub, selector[i], BigInt::FromU64(entry));
      acc = have_factor ? PaillierAdd(pub, acc, factor) : factor;
      have_factor = true;
    }
    if (!have_factor) acc = BigInt(1);
    out.push_back(std::move(acc));
  }
  return out;
}

TEST(CpirTest, HandlesZeroEntriesAndColumns) {
  // 2 x 3 with two all-zero columns; 3 x 3 with an all-zero column and a
  // last row that holds one cell.
  const std::vector<std::vector<uint64_t>> databases{
      {0, 0, 7, 0, 0, 0}, {0, 5, 7, 0, 0, 3, 0}};
  Rng rng(17);
  auto keys = PaillierGenerateKeys(192, &rng);
  ASSERT_TRUE(keys.ok());
  for (const auto& db : databases) {
    auto server = CpirServer::Create(db);
    ASSERT_TRUE(server.ok());
    auto client = CpirClient::Create(192, 11);
    ASSERT_TRUE(client.ok());
    for (size_t i = 0; i < db.size(); ++i) {
      auto got = client->Read(&*server, i);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, db[i]);
    }
    // The folded ciphertexts themselves equal the replaced loop's.
    for (size_t target = 0; target < server->rows(); ++target) {
      std::vector<BigInt> selector;
      for (size_t i = 0; i < server->rows(); ++i) {
        auto c = PaillierEncrypt(keys->pub, BigInt(i == target ? 1 : 0), &rng);
        ASSERT_TRUE(c.ok());
        selector.push_back(*c);
      }
      auto answer = server->Answer(keys->pub, selector);
      ASSERT_TRUE(answer.ok());
      EXPECT_TRUE(*answer == ReferenceCpirAnswer(keys->pub, db, server->rows(),
                                                 server->cols(), selector))
          << "database of " << db.size() << ", target row " << target;
    }
  }
}

TEST(CpirTest, RejectsBadInput) {
  EXPECT_FALSE(CpirServer::Create({}).ok());
  std::vector<uint64_t> db{1, 2, 3};
  auto server = CpirServer::Create(db);
  ASSERT_TRUE(server.ok());
  auto client = CpirClient::Create(192, 13);
  ASSERT_TRUE(client.ok());
  EXPECT_FALSE(client->Read(&*server, 3).ok());
}

TEST(KeywordPirTest, LookupsHitAndMiss) {
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  for (uint64_t k = 0; k < 50; ++k) entries.emplace_back(k * 10, k * 1000);
  auto store = KeywordPirStore::Create(entries);
  ASSERT_TRUE(store.ok());
  Rng rng(15);
  for (uint64_t k = 0; k < 50; ++k) {
    auto hit = store->Lookup(k * 10, &rng);
    ASSERT_TRUE(hit.ok());
    ASSERT_TRUE(hit->has_value());
    EXPECT_EQ(**hit, k * 1000);
  }
  auto miss = store->Lookup(5, &rng);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->has_value());
  auto miss2 = store->Lookup(9999, &rng);
  ASSERT_TRUE(miss2.ok());
  EXPECT_FALSE(miss2->has_value());
}

TEST(KeywordPirTest, LogarithmicQueryCount) {
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  for (uint64_t k = 0; k < 128; ++k) entries.emplace_back(k, k);
  auto store = KeywordPirStore::Create(entries);
  ASSERT_TRUE(store.ok());
  Rng rng(17);
  PirStats stats;
  auto hit = store->Lookup(64, &rng, &stats);
  ASSERT_TRUE(hit.ok());
  // Binary search over 128 keys: <= 8 reads of 64 + 128 bits upload each.
  const size_t reads = store->queries_observed() / 2;
  EXPECT_GT(reads, 0u);
  EXPECT_LE(reads, 8u);
  EXPECT_EQ(stats.upload_bits, reads * (64 + 128u));
}

TEST(KeywordPirTest, RejectsBadInput) {
  EXPECT_FALSE(KeywordPirStore::Create({}).ok());
  EXPECT_FALSE(KeywordPirStore::Create({{1, 2}, {1, 3}}).ok());  // dup key
}

}  // namespace
}  // namespace tripriv
