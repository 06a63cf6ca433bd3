// Parallel batched execution throughput: what the thread pool buys.
//
// Every row times bit-identical answers (the determinism suite asserts the
// equality; this file measures the speed): a 10k-record 2-server PIR batch
// read (RecursivePirBatchRead at d = 1), the sharded single-answer kernel,
// MDAV distance scans, and the service batch path. No row is gated.
//
// PIR batches run their items serially and the pool shards each replica's
// sweep, so a threaded row pays one fork/join per sweep and gains only where
// a sweep is long enough to amortize it. Every PIR row sweeps the servers'
// dense layout, their only record store. Measured on a 4-vCPU Intel Xeon
// VM (GCC 12.2, Release, medians of 5 repetitions, three runs):
// BM_RecursivePirBatchRead read 5.8-7.4 ms at 0 threads, 8.3-8.8 ms at 2
// and 6.5-7.6 ms at 4, and BM_ShardedAnswerKernel (a 4 MB sweep) 267-332 us
// at 0 threads, 361-429 us at 2 and 198-243 us at 8. On that host a
// 2-thread fork/join costs more than sharding a sweep saves, so whether a
// threaded row beats the serial one depends on the host and the count.
//
// All benchmarks use wall-clock time (UseRealTime): the work happens on
// pool workers, so the default main-thread CPU accounting would report
// only the barrier wait.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "pir/it_pir.h"
#include "pir/recursive_pir.h"
#include "sdc/microaggregation.h"
#include "service/batch_executor.h"
#include "service/pir_failover.h"
#include "service/query_service.h"
#include "table/datasets.h"
#include "util/thread_pool.h"

namespace tripriv {
namespace {

constexpr size_t kPirRecords = 10000;
constexpr size_t kPirRecordSize = 64;
constexpr size_t kBatchSize = 64;

std::vector<std::vector<uint8_t>> MakeRecords(size_t n, size_t size) {
  std::vector<std::vector<uint8_t>> records(n, std::vector<uint8_t>(size));
  Rng rng(5);
  for (auto& r : records) {
    for (auto& b : r) b = static_cast<uint8_t>(rng.NextU64());
  }
  return records;
}

std::vector<size_t> MakeIndices(size_t count, size_t n) {
  std::vector<size_t> indices(count);
  Rng rng(6);
  for (auto& i : indices) i = static_cast<size_t>(rng.UniformU64(n));
  return indices;
}

/// A 10k-record, 64-batch 2-server PIR read (RecursivePirBatchRead at
/// d = 1) at thread counts {0 (serial), 1, 2, 4, 8}. Throughput in
/// reads/s; the threaded rows measure sharding of each 640 KB sweep.
void BM_RecursivePirBatchRead(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  auto records = MakeRecords(kPirRecords, kPirRecordSize);
  auto a = XorPirServer::Create(records);
  auto b = XorPirServer::Create(records);
  auto g = HypercubeGeometry::Balanced(kPirRecords, 1);
  const auto indices = MakeIndices(kBatchSize, kPirRecords);
  ThreadPool pool(threads);
  Rng rng(9);
  for (auto _ : state) {
    auto answers =
        RecursivePirBatchRead({&*a, &*b}, *g, indices, &rng, &pool);
    benchmark::DoNotOptimize(answers);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatchSize));
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_RecursivePirBatchRead)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// One large sharded answer (the per-query kernel on a big database).
void BM_ShardedAnswerKernel(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  auto records = MakeRecords(65536, 64);
  auto server = XorPirServer::Create(records);
  Rng rng(11);
  const auto selection = RandomSelectionBits(records.size(), &rng);
  ThreadPool pool(threads);
  for (auto _ : state) {
    auto answer = server->ComputeAnswer(selection, &pool);
    benchmark::DoNotOptimize(answer);
  }
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_ShardedAnswerKernel)
    ->Arg(0)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

/// Failover-client batch reads through the service executor.
void BM_ServicePirBatch(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  auto records = MakeRecords(4096, kPirRecordSize);
  SimClock clock;
  auto pir = FailoverPirClient::Build(records, 2, RetryPolicy{}, &clock, 17);
  MemWalIo wal;
  auto service = QueryService::Create(PaperDataset2(), QueryServiceConfig{},
                                      &wal);
  service->AttachPirBackend(&*pir);
  ThreadPool pool(threads);
  BatchExecutor executor(&*service, &pool);
  const auto indices = MakeIndices(kBatchSize, records.size());
  for (auto _ : state) {
    auto results = executor.ExecutePirBatch(indices, Deadline());
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatchSize));
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_ServicePirBatch)
    ->Arg(0)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// MDAV with sharded distance scans on a table past the parallel threshold.
void BM_MdavParallel(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  DataTable data = MakeClinicalTrial(8000, 7);
  const auto cols = data.schema().QuasiIdentifierIndices();
  ThreadPool pool(threads);
  for (auto _ : state) {
    auto result = MdavMicroaggregate(data, 25, cols, &pool);
    benchmark::DoNotOptimize(result);
  }
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_MdavParallel)
    ->Arg(0)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tripriv

BENCHMARK_MAIN();
