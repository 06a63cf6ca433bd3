// Parallel determinism suite (`ctest -L parallel`, the TSan CI leg's
// payload): for every parallel path added by the batch-execution subsystem,
// the same seed and the same batch must produce byte-identical answers,
// stats, observation rings, and audit WAL bytes at ANY thread count — the
// worker count may change wall-clock time and nothing else. The serial
// reference (pool of 0) anchors each comparison, so these tests pin the
// parallel paths to the exact transcripts the fault-injection and
// WAL-recovery suites replay.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pir/it_pir.h"
#include "pir/recursive_pir.h"
#include "querydb/query.h"
#include "sdc/microaggregation.h"
#include "service/batch_executor.h"
#include "service/pir_failover.h"
#include "service/query_service.h"
#include "table/datasets.h"
#include "util/thread_pool.h"

namespace tripriv {
namespace {

const size_t kThreadCounts[] = {0, 1, 2, 8};

std::vector<std::vector<uint8_t>> MakeRecords(size_t n, size_t size,
                                              uint64_t seed) {
  std::vector<std::vector<uint8_t>> records(n, std::vector<uint8_t>(size));
  Rng rng(seed);
  for (auto& r : records) {
    for (auto& b : r) b = static_cast<uint8_t>(rng.NextU64());
  }
  return records;
}

TEST(ParallelDeterminismTest, ShardedAnswerIsBitIdenticalToSerial) {
  // 4096 x 16 B = 64 KiB crosses the parallel threshold, so the sharded
  // kernel actually runs; a non-multiple-of-8 record count exercises the
  // padding byte.
  auto records = MakeRecords(4093, 16, 11);
  auto server = XorPirServer::Create(records);
  ASSERT_TRUE(server.ok());
  Rng rng(12);
  for (int trial = 0; trial < 8; ++trial) {
    const auto selection = RandomSelectionBits(records.size(), &rng);
    const auto serial = server->ComputeAnswer(selection, nullptr);
    ASSERT_TRUE(serial.ok());
    for (size_t threads : kThreadCounts) {
      ThreadPool pool(threads);
      const auto sharded = server->ComputeAnswer(selection, &pool);
      ASSERT_TRUE(sharded.ok());
      EXPECT_EQ(*sharded, *serial) << "threads=" << threads;
    }
  }
}

TEST(ParallelDeterminismTest, BatchReadMatchesSerialLoopAtAnyThreadCount) {
  // 1021 x 40 B crosses the 32 KiB parallel threshold, so the pool shards
  // each replica's sweep; batch items themselves run serially.
  const size_t n = 1021;
  const size_t record_size = 40;
  auto records = MakeRecords(n, record_size, 21);
  std::vector<size_t> indices;
  Rng pick(22);
  for (int i = 0; i < 48; ++i) {
    indices.push_back(static_cast<size_t>(pick.UniformU64(n)));
  }

  // Serial reference: a d = 1 RecursivePirRead loop from seed 23.
  auto g = HypercubeGeometry::Balanced(n, 1);
  ASSERT_TRUE(g.ok());
  auto ref_a = XorPirServer::Create(records);
  auto ref_b = XorPirServer::Create(records);
  ASSERT_TRUE(ref_a.ok() && ref_b.ok());
  ref_a->EnableObservationLog(8);
  ref_b->EnableObservationLog(8);
  Rng ref_rng(23);
  std::vector<std::vector<uint8_t>> ref_answers;
  PirStats ref_stats;
  for (size_t index : indices) {
    PirStats step;
    auto got = RecursivePirRead({&*ref_a, &*ref_b}, *g, index, &ref_rng,
                                nullptr, &step);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, records[index]);
    ref_answers.push_back(std::move(*got));
    ref_stats.upload_bits += step.upload_bits;
    ref_stats.download_bits += step.download_bits;
  }

  for (size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    auto a = XorPirServer::Create(records);
    auto b = XorPirServer::Create(records);
    ASSERT_TRUE(a.ok() && b.ok());
    a->EnableObservationLog(8);
    b->EnableObservationLog(8);
    Rng rng(23);
    PirStats stats;
    auto answers = RecursivePirBatchRead({&*a, &*b}, *g, indices, &rng, &pool,
                                         &stats);
    ASSERT_TRUE(answers.ok());
    // Identical answers, communication accounting, counters, and
    // single-server views (the full bounded observation rings, entry by
    // entry) — the thread count is invisible in the transcript.
    EXPECT_EQ(*answers, ref_answers) << "threads=" << threads;
    EXPECT_EQ(stats.upload_bits, ref_stats.upload_bits);
    EXPECT_EQ(stats.download_bits, ref_stats.download_bits);
    EXPECT_EQ(a->queries_answered(), ref_a->queries_answered());
    EXPECT_EQ(b->queries_answered(), ref_b->queries_answered());
    ASSERT_EQ(a->num_observed(), ref_a->num_observed());
    for (size_t i = 0; i < a->num_observed(); ++i) {
      EXPECT_EQ(a->observed_query(i), ref_a->observed_query(i)) << i;
      EXPECT_EQ(b->observed_query(i), ref_b->observed_query(i)) << i;
    }
  }
}

TEST(ParallelDeterminismTest, FailoverReadBatchIsThreadCountInvariant) {
  // A corrupt server forces failovers down the retry ladder; the whole
  // transcript (answers, counters, clock, server views) must still be
  // independent of the worker count, at d = 1 and d = 2. 2053 stored
  // records of 12 + 8 checksum bytes cross the 32 KiB parallel threshold,
  // so the pool shards every replica's sweep.
  auto records = MakeRecords(2053, 12, 31);
  std::vector<size_t> indices;
  Rng pick(32);
  for (int i = 0; i < 24; ++i) {
    indices.push_back(static_cast<size_t>(pick.UniformU64(records.size())));
  }

  struct RunResult {
    std::vector<Status> codes;
    std::vector<std::vector<uint8_t>> payloads;
    size_t failovers = 0;
    size_t corrupt_detected = 0;
    uint64_t clock_now = 0;
    std::vector<uint64_t> queries_answered;
  };
  auto run = [&records, &indices](size_t d, size_t threads) {
    SimClock clock;
    auto client = FailoverPirClient::BuildRecursive(
        records, /*num_groups=*/2, d, RetryPolicy{}, &clock, /*seed=*/33);
    TRIPRIV_CHECK(client.ok());
    PirServerFault corrupt;
    corrupt.corrupt_rate = 1.0;
    client->InjectFault(1, corrupt);  // group 0, member 1: always corrupts
    ThreadPool pool(threads);
    RunResult out;
    auto results = client->ReadBatch(indices, Deadline(), &pool);
    for (size_t i = 0; i < results.size(); ++i) {
      out.codes.push_back(results[i].ok() ? Status::OK()
                                          : results[i].status());
      if (results[i].ok()) {
        TRIPRIV_CHECK(*results[i] == records[indices[i]]);
        out.payloads.push_back(*results[i]);
      }
    }
    out.failovers = client->failovers();
    out.corrupt_detected = client->corrupt_answers_detected();
    out.clock_now = clock.now();
    for (size_t s = 0; s < 2 * client->group_size(); ++s) {
      out.queries_answered.push_back(client->server(s).queries_answered());
    }
    return out;
  };

  for (size_t d : {1u, 2u}) {
    const RunResult ref = run(d, 0);
    EXPECT_GT(ref.corrupt_detected, 0u);  // the fault actually fired
    EXPECT_FALSE(ref.payloads.empty());
    for (size_t threads : {1u, 2u, 8u}) {
      const RunResult got = run(d, threads);
      ASSERT_EQ(got.codes.size(), ref.codes.size());
      for (size_t i = 0; i < ref.codes.size(); ++i) {
        EXPECT_EQ(got.codes[i].code(), ref.codes[i].code()) << i;
      }
      EXPECT_EQ(got.payloads, ref.payloads)
          << "d=" << d << " threads=" << threads;
      EXPECT_EQ(got.failovers, ref.failovers);
      EXPECT_EQ(got.corrupt_detected, ref.corrupt_detected);
      EXPECT_EQ(got.clock_now, ref.clock_now);
      EXPECT_EQ(got.queries_answered, ref.queries_answered);
    }
  }
}

StatQuery Parse(const std::string& sql) {
  auto query = ParseQuery(sql);
  TRIPRIV_CHECK(query.ok()) << sql;
  return std::move(query).value();
}

TEST(ParallelDeterminismTest, QueryBatchMatchesSerialSubmitByteForByte) {
  // The decisive comparison: the audit WAL a batched run commits must be
  // BYTE-identical to the serial run's — the WAL is what recovery replays,
  // so any divergence would let a thread count change post-crash behaviour.
  const std::vector<StatQuery> batch = {
      Parse("SELECT SUM(blood_pressure) FROM t WHERE height < 172"),
      Parse("SELECT COUNT(*) FROM t WHERE weight > 80"),
      Parse("SELECT SUM(blood_pressure) FROM t WHERE height < 171"),
      Parse("SELECT AVG(weight) FROM t WHERE height >= 160"),
      Parse("SELECT COUNT(*) FROM t WHERE height < 165 AND weight > 105"),
      Parse("SELECT SUM(weight) FROM t WHERE blood_pressure > 100"),
  };
  QueryServiceConfig config;
  config.protection.mode = ProtectionMode::kAudit;
  config.protection.min_query_set_size = 2;
  config.faults.backend_fault_rate = 0.3;  // exercise the fault rng too

  // Serial reference: plain Submit calls.
  MemWalIo ref_wal;
  auto ref_service = QueryService::Create(PaperDataset2(), config, &ref_wal);
  ASSERT_TRUE(ref_service.ok());
  std::vector<ServiceAnswer> ref_answers;
  for (const auto& query : batch) ref_answers.push_back(ref_service->Submit(query));
  auto ref_bytes = ref_wal.ReadAll();
  ASSERT_TRUE(ref_bytes.ok());

  for (size_t threads : kThreadCounts) {
    MemWalIo wal;
    auto service = QueryService::Create(PaperDataset2(), config, &wal);
    ASSERT_TRUE(service.ok());
    ThreadPool pool(threads);
    BatchExecutor executor(&*service, &pool);
    const auto answers = executor.ExecuteQueryBatch(batch);

    ASSERT_EQ(answers.size(), ref_answers.size());
    for (size_t i = 0; i < answers.size(); ++i) {
      EXPECT_EQ(answers[i].tier, ref_answers[i].tier) << i;
      EXPECT_EQ(answers[i].query_id, ref_answers[i].query_id) << i;
      EXPECT_EQ(answers[i].refusal.code(), ref_answers[i].refusal.code()) << i;
      if (answers[i].tier != AnswerTier::kRefused) {
        EXPECT_DOUBLE_EQ(answers[i].answer.value, ref_answers[i].answer.value)
            << i;
      }
    }
    // Stats identical field by field.
    const ServiceStats& got = service->stats();
    const ServiceStats& want = ref_service->stats();
    EXPECT_EQ(got.received, want.received);
    EXPECT_EQ(got.protected_answers, want.protected_answers);
    EXPECT_EQ(got.dp_answers, want.dp_answers);
    EXPECT_EQ(got.refusals, want.refusals);
    EXPECT_EQ(got.policy_refusals, want.policy_refusals);
    EXPECT_EQ(got.shed, want.shed);
    EXPECT_EQ(got.degraded_attempts, want.degraded_attempts);
    EXPECT_EQ(got.wal_append_failures, want.wal_append_failures);
    // WAL bytes identical.
    auto bytes = wal.ReadAll();
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(*bytes, *ref_bytes) << "threads=" << threads;
    EXPECT_EQ(executor.stats().stat_queries, batch.size());
  }
}

TEST(ParallelDeterminismTest, ServicePirBatchIsThreadCountInvariant) {
  // 1500 stored records of 20 + 8 checksum bytes cross the 32 KiB parallel
  // threshold, so the pool shards every replica's sweep.
  auto records = MakeRecords(1500, 20, 41);
  const std::vector<size_t> indices = {5, 90, 5, 127, 0, 63};

  auto run = [&records, &indices](size_t d, size_t threads) {
    MemWalIo wal;
    QueryServiceConfig config;
    auto service = QueryService::Create(PaperDataset2(), config, &wal);
    TRIPRIV_CHECK(service.ok());
    SimClock clock;
    auto pir = FailoverPirClient::BuildRecursive(records, 2, d, RetryPolicy{},
                                                 &clock, 43);
    TRIPRIV_CHECK(pir.ok());
    service->AttachPirBackend(&*pir);
    ThreadPool pool(threads);
    BatchExecutor executor(&*service, &pool);
    auto results = executor.ExecutePirBatch(indices, Deadline());
    std::vector<std::vector<uint8_t>> payloads;
    for (auto& r : results) {
      TRIPRIV_CHECK(r.ok());
      payloads.push_back(std::move(*r));
    }
    return payloads;
  };

  for (size_t d : {1u, 2u}) {
    const auto ref = run(d, 0);
    for (size_t i = 0; i < indices.size(); ++i) {
      EXPECT_EQ(ref[i], records[indices[i]]) << "d=" << d << " read " << i;
    }
    for (size_t threads : {1u, 2u, 8u}) {
      EXPECT_EQ(run(d, threads), ref) << "d=" << d << " threads=" << threads;
    }
  }
}

TEST(ParallelDeterminismTest, MdavGroupingIsThreadCountInvariant) {
  // 5000 rows crosses the distance-scan parallel threshold for the first
  // MDAV iterations, so the sharded argmax and distance fill actually run.
  DataTable data = MakeClinicalTrial(5000, 7);
  const auto cols = data.schema().QuasiIdentifierIndices();
  ASSERT_FALSE(cols.empty());

  auto serial = MdavMicroaggregate(data, /*k=*/400, cols, nullptr);
  ASSERT_TRUE(serial.ok());
  for (size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    auto parallel = MdavMicroaggregate(data, /*k=*/400, cols, &pool);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel->group_of_row, serial->group_of_row)
        << "threads=" << threads;
    EXPECT_EQ(parallel->num_groups, serial->num_groups);
    // Exact double equality is intentional: the parallel path must perform
    // the same arithmetic in the same order, not merely similar arithmetic.
    EXPECT_EQ(parallel->within_group_sse, serial->within_group_sse);
  }
}

}  // namespace
}  // namespace tripriv
