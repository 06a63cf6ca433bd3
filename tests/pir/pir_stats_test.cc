// Regressions for the PirStats accounting contract and the batch error
// path.
//
//   * PirStats: every read path must ACCUMULATE into the caller's struct
//     with `+=`. The old single-read paths overwrote with `=`, so
//     interleaving a single read after a batch silently clobbered the
//     running totals, and a keyword lookup replaced them with its own.
//   * RecursivePirBatchRead: a per-slot failure surfaces as the batch's
//     typed error naming its slot, never a process abort, and a failed
//     batch adds nothing to the caller's stats.

#include <gtest/gtest.h>

#include "pir/it_pir.h"
#include "pir/keyword_pir.h"
#include "pir/recursive_pir.h"
#include "util/thread_pool.h"

namespace tripriv {
namespace {

std::vector<std::vector<uint8_t>> MakeRecords(size_t n, size_t size) {
  std::vector<std::vector<uint8_t>> records(n, std::vector<uint8_t>(size));
  Rng rng(77);
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

TEST(PirStatsTest, InterleavedReadPathsAccumulateIntoOneStruct) {
  const size_t n = 64;
  const size_t size = 8;
  auto records = MakeRecords(n, size);
  auto a = XorPirServer::Create(records);
  auto b = XorPirServer::Create(records);
  std::vector<XorPirServer> cube_servers;
  for (int i = 0; i < 4; ++i) {
    cube_servers.push_back(*XorPirServer::Create(records));
  }
  std::vector<XorPirServer*> cube{&cube_servers[0], &cube_servers[1],
                                  &cube_servers[2], &cube_servers[3]};
  const HypercubeGeometry flat = Flat(n);
  Rng rng(1);
  PirStats stats;

  // Batch of 3, then a single 2-server read, then a d = 2 read, then a
  // keyword lookup — one running total across all four paths.
  ASSERT_TRUE(RecursivePirBatchRead({&*a, &*b}, flat, {1, 2, 3}, &rng, nullptr,
                                    &stats)
                  .ok());
  size_t expected_up = 3 * (64 + n);
  size_t expected_down = 3 * 2 * 8 * size;
  EXPECT_EQ(stats.upload_bits, expected_up);
  EXPECT_EQ(stats.download_bits, expected_down);

  // Regression: this single read used to OVERWRITE the batch totals.
  ASSERT_TRUE(
      RecursivePirRead({&*a, &*b}, flat, 5, &rng, nullptr, &stats).ok());
  expected_up += 64 + n;
  expected_down += 2 * 8 * size;
  EXPECT_EQ(stats.upload_bits, expected_up);
  EXPECT_EQ(stats.download_bits, expected_down);

  // d = 2: 64 seed bits + 3 explicit 2-axis queries of side 8.
  auto g = HypercubeGeometry::Balanced(n, 2);
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(RecursivePirRead(cube, *g, 11, &rng, nullptr, &stats).ok());
  expected_up += 64 + 3 * 2 * 8;
  expected_down += 4 * 8 * size;
  EXPECT_EQ(stats.upload_bits, expected_up);
  EXPECT_EQ(stats.download_bits, expected_down);

  // Regression: a keyword lookup used to REPLACE the running totals with
  // its own. Each probe is a d = 1 read over 32 entries of 16 bytes.
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  for (uint64_t k = 0; k < 32; ++k) entries.emplace_back(k * 3, k);
  auto store = KeywordPirStore::Create(entries);
  ASSERT_TRUE(store.ok());
  auto hit = store->Lookup(42, &rng, &stats);
  ASSERT_TRUE(hit.ok());
  ASSERT_TRUE(hit->has_value());
  EXPECT_EQ(**hit, 14u);
  const size_t probes = store->queries_observed() / 2;
  EXPECT_GT(probes, 0u);
  expected_up += probes * (64 + 32);
  expected_down += probes * 2 * 8 * 16;
  EXPECT_EQ(stats.upload_bits, expected_up);
  EXPECT_EQ(stats.download_bits, expected_down);

  stats.Reset();
  EXPECT_EQ(stats.upload_bits, 0u);
  EXPECT_EQ(stats.download_bits, 0u);
}

TEST(PirBatchErrorTest, ComputeFaultBecomesTypedErrorNotAbort) {
  auto records = MakeRecords(32, 8);
  auto a = XorPirServer::Create(records);
  auto b = XorPirServer::Create(records);
  ASSERT_TRUE(a.ok() && b.ok());
  const HypercubeGeometry flat = Flat(records.size());

  // Replica b diverges mid-batch: every ComputeAnswer fails. The batch
  // must return the first slot's failure as a typed error — never abort
  // the process.
  b->InjectComputeFault(Status::Unavailable("replica b diverged"));
  Rng rng(3);
  auto serial = RecursivePirBatchRead({&*a, &*b}, flat, {4, 5, 6}, &rng);
  ASSERT_FALSE(serial.ok());
  EXPECT_EQ(serial.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(serial.status().message().find("slot 0"), std::string::npos);
  EXPECT_NE(serial.status().message().find("replica b diverged"),
            std::string::npos);

  // Same through the pool path — the pool shards each replica's sweep.
  ThreadPool pool(2);
  auto pooled = RecursivePirBatchRead({&*a, &*b}, flat,
                                      {1, 2, 3, 4, 5, 6, 7, 8}, &rng, &pool);
  ASSERT_FALSE(pooled.ok());
  EXPECT_EQ(pooled.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(pooled.status().message().find("slot 0"), std::string::npos);

  // Disarm: the same servers serve the batch again.
  b->InjectComputeFault(Status());
  PirStats stats;
  auto healed =
      RecursivePirBatchRead({&*a, &*b}, flat, {4, 5}, &rng, &pool, &stats);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ((*healed)[0], records[4]);
  EXPECT_EQ((*healed)[1], records[5]);
  EXPECT_EQ(stats.upload_bits, 2 * (64 + 32u));
}

TEST(PirBatchErrorTest, FailedBatchDoesNotTouchStats) {
  auto records = MakeRecords(16, 4);
  auto a = XorPirServer::Create(records);
  auto b = XorPirServer::Create(records);
  ASSERT_TRUE(a.ok() && b.ok());
  const HypercubeGeometry flat = Flat(records.size());
  a->InjectComputeFault(Status::Internal("wedged"));
  Rng rng(5);
  PirStats stats;
  stats.upload_bits = 123;
  auto failed =
      RecursivePirBatchRead({&*a, &*b}, flat, {0, 1}, &rng, nullptr, &stats);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  // The failed batch accumulated nothing.
  EXPECT_EQ(stats.upload_bits, 123u);

  // A failure after successful items: slot 0 reads, slot 1 is out of
  // range. The batch names slot 1 and still adds nothing.
  a->InjectComputeFault(Status());
  auto late =
      RecursivePirBatchRead({&*a, &*b}, flat, {0, 16}, &rng, nullptr, &stats);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(late.status().message().find("slot 1"), std::string::npos);
  EXPECT_EQ(stats.upload_bits, 123u);
  EXPECT_EQ(stats.download_bits, 0u);
}

}  // namespace
}  // namespace tripriv
