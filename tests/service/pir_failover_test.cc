// Tests for the multi-server IT-PIR failover client: correct retrieval,
// crashed-server failover, corrupt-answer detection via record checksums,
// deadline enforcement, and single-server blindness across retries. Every
// case runs the hypercube scheme at d = 1 (the 2-server pair), 2 and 3.
// This file carries the pir and parallel labels: the batch case shards
// each replica's XOR sweep across a pool, the TSan leg's payload.

#include "service/pir_failover.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/thread_pool.h"

namespace tripriv {
namespace {

const size_t kDims[] = {1, 2, 3};

std::vector<std::vector<uint8_t>> TestRecords(size_t n, size_t record_size) {
  std::vector<std::vector<uint8_t>> records(n);
  for (size_t i = 0; i < n; ++i) {
    records[i].resize(record_size);
    for (size_t j = 0; j < record_size; ++j) {
      records[i][j] = static_cast<uint8_t>(i * 31 + j);
    }
  }
  return records;
}

FailoverPirClient MakeClient(const std::vector<std::vector<uint8_t>>& records,
                             size_t num_groups, size_t d,
                             const RetryPolicy& retry, SimClock* clock,
                             uint64_t seed) {
  auto client = FailoverPirClient::BuildRecursive(records, num_groups, d,
                                                  retry, clock, seed);
  TRIPRIV_CHECK(client.ok());
  return std::move(client).value();
}

TEST(PirFailoverTest, HealthyPairsRetrieveEveryRecord) {
  auto records = TestRecords(13, 5);
  // 1024 stored records of 24 + 8 checksum bytes = 32 KiB per replica:
  // large enough that the pool shards each replica's sweep.
  auto wide = TestRecords(1024, 24);
  std::vector<size_t> indices;
  for (size_t i = 0; i < wide.size(); i += 7) indices.push_back(i);
  ThreadPool pool(2);
  for (size_t d : kDims) {
    SimClock clock;
    FailoverPirClient client = MakeClient(records, 2, d, RetryPolicy{}, &clock,
                                          7);
    EXPECT_EQ(client.group_size(), size_t{1} << d);
    EXPECT_EQ(client.num_groups(), 2u);
    for (size_t i = 0; i < records.size(); ++i) {
      auto read = client.Read(i, Deadline());
      ASSERT_TRUE(read.ok()) << "d=" << d << " record " << i;
      EXPECT_EQ(*read, records[i]);
    }
    EXPECT_EQ(client.failovers(), 0u);
    EXPECT_EQ(client.corrupt_answers_detected(), 0u);

    FailoverPirClient sharded = MakeClient(wide, 2, d, RetryPolicy{}, &clock,
                                           7);
    auto batch = sharded.ReadBatch(indices, Deadline(), &pool);
    ASSERT_EQ(batch.size(), indices.size());
    for (size_t i = 0; i < indices.size(); ++i) {
      ASSERT_TRUE(batch[i].ok()) << "d=" << d << " record " << indices[i];
      EXPECT_EQ(*batch[i], wide[indices[i]]);
    }
  }
}

TEST(PirFailoverTest, CrashedPairFailsOverToHealthyPair) {
  auto records = TestRecords(8, 4);
  for (size_t d : kDims) {
    SimClock clock;
    FailoverPirClient client = MakeClient(records, 2, d, RetryPolicy{}, &clock,
                                          7);
    // Group 0, last member: the crash check covers every member.
    client.InjectFault(client.group_size() - 1,
                       PirServerFault{.crashed = true});
    for (size_t i = 0; i < records.size(); ++i) {
      auto read = client.Read(i, Deadline());
      ASSERT_TRUE(read.ok()) << "d=" << d << " record " << i;
      EXPECT_EQ(*read, records[i]);
    }
    EXPECT_GT(client.failovers(), 0u) << "d=" << d;
  }
}

TEST(PirFailoverTest, AllPairsDownIsTypedUnavailable) {
  auto records = TestRecords(4, 3);
  for (size_t d : kDims) {
    SimClock clock;
    FailoverPirClient client = MakeClient(records, 2, d, RetryPolicy{}, &clock,
                                          7);
    for (size_t g = 0; g < client.num_groups(); ++g) {
      client.InjectFault(g * client.group_size(),
                         PirServerFault{.crashed = true});
    }
    auto read = client.Read(0, Deadline());
    ASSERT_FALSE(read.ok()) << "d=" << d;
    EXPECT_EQ(read.status().code(), StatusCode::kUnavailable) << "d=" << d;
  }
}

TEST(PirFailoverTest, CorruptAnswerIsDetectedNeverReturned) {
  auto records = TestRecords(16, 6);
  for (size_t d : kDims) {
    SimClock clock;
    FailoverPirClient client = MakeClient(records, 3, d, RetryPolicy{}, &clock,
                                          11);
    // Group 0's member 1 flips a byte in every answer. The checksum must
    // catch it and fail over; the caller sees only correct data or typed
    // errors.
    client.InjectFault(1, PirServerFault{.corrupt_rate = 1.0});
    for (size_t i = 0; i < records.size(); ++i) {
      auto read = client.Read(i, Deadline());
      ASSERT_TRUE(read.ok()) << "d=" << d << " record " << i;
      EXPECT_EQ(*read, records[i]);  // never silently corrupt
    }
    EXPECT_GT(client.corrupt_answers_detected(), 0u) << "d=" << d;
  }
}

TEST(PirFailoverTest, DeadlineBoundsFailoverAttempts) {
  auto records = TestRecords(4, 3);
  RetryPolicy retry;
  retry.initial_backoff_ticks = 4;
  for (size_t d : kDims) {
    SimClock clock;
    FailoverPirClient client = MakeClient(records, 2, d, retry, &clock, 7);
    for (size_t g = 0; g < client.num_groups(); ++g) {
      client.InjectFault(g * client.group_size(),
                         PirServerFault{.crashed = true});
    }
    // Enough budget for one backoff, not the full attempt ladder.
    auto read = client.Read(0, Deadline::After(clock, 5));
    ASSERT_FALSE(read.ok()) << "d=" << d;
    EXPECT_EQ(read.status().code(), StatusCode::kDeadlineExceeded)
        << "d=" << d;
  }
}

TEST(PirFailoverTest, OutOfRangeIndexIsPermanent) {
  auto records = TestRecords(4, 3);
  for (size_t d : kDims) {
    SimClock clock;
    FailoverPirClient client = MakeClient(records, 1, d, RetryPolicy{}, &clock,
                                          7);
    EXPECT_EQ(client.Read(99, Deadline()).status().code(),
              StatusCode::kOutOfRange)
        << "d=" << d;
    EXPECT_EQ(client.failovers(), 0u) << "d=" << d;
  }
}

TEST(PirFailoverTest, RetriesUseFreshRandomnessPerPair) {
  // Failover re-issues the query with a fresh seed: the two selections a
  // single server observes across a retried read must differ (with
  // overwhelming probability), so its view stays blind. Replica 0 sees
  // its seed's expansion, every other member explicit axis bitmaps. 4096
  // records keep every axis at >= 16 cells, so two fresh draws of one
  // member's view collide with negligible probability at every d.
  auto records = TestRecords(4096, 4);
  for (size_t d : kDims) {
    SimClock clock;
    FailoverPirClient client = MakeClient(records, 1, d, RetryPolicy{}, &clock,
                                          7);
    client.EnableObservationLogs(2);
    ASSERT_TRUE(client.Read(3, Deadline()).ok());
    ASSERT_TRUE(client.Read(3, Deadline()).ok());
    // Both reads went to group 0 (the only group). Each member saw two
    // selection vectors; identical ones would let it diff queries over
    // time.
    for (size_t m = 0; m < client.group_size(); ++m) {
      const auto& server = client.server(m);
      ASSERT_EQ(server.num_observed(), 2u);
      EXPECT_NE(server.observed_query(0), server.observed_query(1))
          << "d=" << d << " member " << m;
    }
  }
}

}  // namespace
}  // namespace tripriv
