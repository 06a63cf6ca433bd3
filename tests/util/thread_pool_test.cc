// ThreadPool contract tests: shard geometry is a pure function of (n,
// worker count), every index is visited exactly once, the inline pool is a
// faithful serial reference, the caller runs shard 0 and workers the rest,
// and the fork/join barrier publishes all shard writes to the caller.

#include "util/thread_pool.h"

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace tripriv {
namespace {

TEST(ThreadPoolTest, InlinePoolRunsEverythingOnTheCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0u);
  EXPECT_EQ(pool.NumShards(100), 1u);
  std::vector<int> hits(10, 0);
  pool.ParallelFor(10, [&hits](size_t shard, size_t begin, size_t end) {
    EXPECT_EQ(shard, 0u);
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ShardBoundsPartitionTheRange) {
  // Shard boundaries must tile [0, n) exactly: contiguous, ascending, no
  // gaps, no overlap — for every (n, threads) combination tried.
  for (size_t threads : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(threads);
    for (size_t n : {0u, 1u, 2u, 5u, 7u, 8u, 9u, 64u, 1000u}) {
      std::vector<std::atomic<int>> hits(n);
      for (auto& h : hits) h = 0;
      pool.ParallelFor(n, [&hits](size_t, size_t begin, size_t end) {
        EXPECT_LE(begin, end);
        for (size_t i = begin; i < end; ++i) ++hits[i];
      });
      for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << "n=" << n;
    }
  }
}

TEST(ThreadPoolTest, NumShardsDependsOnlyOnSizeAndWorkerCount) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  EXPECT_EQ(pool.NumShards(0), 0u);
  EXPECT_EQ(pool.NumShards(1), 1u);
  EXPECT_EQ(pool.NumShards(3), 3u);
  EXPECT_EQ(pool.NumShards(4), 4u);
  EXPECT_EQ(pool.NumShards(1000), 4u);
}

TEST(ThreadPoolTest, CallerRunsShardZeroAndWorkersTheRest) {
  const std::thread::id caller = std::this_thread::get_id();
  for (size_t threads : {2u, 3u, 8u}) {
    ThreadPool pool(threads);
    for (size_t n : {2u, 3u, 1000u}) {
      const size_t shards = pool.NumShards(n);
      std::vector<std::thread::id> ran_on(shards);
      pool.ParallelFor(n, [&ran_on](size_t shard, size_t, size_t) {
        ran_on[shard] = std::this_thread::get_id();
      });
      EXPECT_EQ(ran_on[0], caller) << "threads=" << threads << " n=" << n;
      for (size_t s = 1; s < shards; ++s) {
        EXPECT_NE(ran_on[s], std::thread::id()) << "shard " << s;
        EXPECT_NE(ran_on[s], caller)
            << "threads=" << threads << " n=" << n << " shard " << s;
      }
    }
  }
}

TEST(ThreadPoolTest, BarrierPublishesShardWrites) {
  // The caller must see every shard's writes after ParallelFor returns —
  // no atomics in the payload, ordering comes from the completion barrier.
  ThreadPool pool(4);
  const size_t n = 10000;
  std::vector<uint64_t> out(n, 0);
  pool.ParallelFor(n, [&out](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) out[i] = i * i;
  });
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], i * i);
}

TEST(ThreadPoolTest, PerShardSlotsMergeDeterministically) {
  // The canonical usage: per-shard partial sums, merged in shard order.
  // Every thread count must yield the same result.
  const size_t n = 4321;
  uint64_t expected = 0;
  for (size_t i = 0; i < n; ++i) expected += i;
  for (size_t threads : {0u, 1u, 2u, 8u}) {
    ThreadPool pool(threads);
    const size_t shards = pool.NumShards(n);
    std::vector<uint64_t> partial(shards, 0);
    pool.ParallelFor(n, [&partial](size_t shard, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) partial[shard] += i;
    });
    uint64_t total = 0;
    for (size_t s = 0; s < shards; ++s) total += partial[s];
    EXPECT_EQ(total, expected) << "threads=" << threads;
  }
}

TEST(ThreadPoolTest, ReusableAcrossManyCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::vector<int> hits(17, 0);
    pool.ParallelFor(17, [&hits](size_t, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) ++hits[i];
    });
    const int total = std::accumulate(hits.begin(), hits.end(), 0);
    ASSERT_EQ(total, 17) << "round " << round;
  }
}

}  // namespace
}  // namespace tripriv
