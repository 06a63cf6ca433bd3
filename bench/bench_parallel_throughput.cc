// Parallel batched execution throughput: what the thread pool buys.
//
// Every row times bit-identical answers (the determinism suite asserts the
// equality; this file measures the speed): a 10k-record 2-server PIR batch
// read (RecursivePirBatchRead at d = 1), the sharded single-answer kernel,
// one replica sweep at the tripriv_bench pir_read shape, MDAV distance
// scans, and the service batch path. No row is gated.
//
// PIR batches run their items serially and the pool shards each replica's
// sweep: the calling thread sweeps shard 0 while one worker per other shard
// sweeps the rest, so a threaded row pays one fork/join per sweep and gains
// only where a sweep is long enough to amortize it. Every PIR row sweeps
// the servers' dense layout, their only record store, through a local
// 256-byte tile. Measured on a 4-vCPU Intel Xeon VM (GCC 12.2, Release,
// medians of 5 repetitions, three runs):
//   BM_ShardedAnswerKernel (a 4 MB sweep): 170-184 us at 0 threads,
//     102-147 us at 2, 82-93 us at 4 and 105-125 us at 8;
//   BM_ReplicaSweep (18.9 MB replicas): 742-1146 us at 0 threads and
//     334-381 us at 2;
//   BM_RecursivePirBatchRead (640 KB sweeps): 4.0-6.4 ms at 0 threads,
//     4.7-5.6 ms at 2 and 5.4-6.4 ms at 4.
// The 4 MB and replica sweeps gain from a second thread; the batch row's
// 640 KB sweeps still do not, so whether a threaded row beats the serial
// one depends on the sweep size, the host and the count.
//
// All benchmarks use wall-clock time (UseRealTime): the work happens on
// pool workers, so the default main-thread CPU accounting would report
// only the barrier wait.

#include <benchmark/benchmark.h>

#include <cstring>
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

/// One replica sweep at the tripriv_bench pir_read shape: 2^18 stored
/// records of 72 bytes (a 64-byte payload and its checksum) answering a
/// d = 2 product selection, at 0 and 2 threads. The four replicas of one
/// d = 2 group (75 MB) are swept in turn, so each sweep streams from DRAM
/// as a served read does. Bytes/s counts the selected records' bytes.
void BM_ReplicaSweep(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  constexpr size_t kRecords = size_t{1} << 18;
  constexpr size_t kStoredSize = 72;
  auto g = HypercubeGeometry::Balanced(kRecords, 2);
  Rng rng(13);
  std::vector<XorPirServer> replicas;
  std::vector<std::vector<uint8_t>> selections;
  std::vector<int64_t> selected_bytes;
  for (size_t r = 0; r < g->num_servers(); ++r) {
    auto replica = XorPirServer::Create(
        kRecords, kStoredSize, [&rng](size_t, uint8_t* out) {
          for (size_t b = 0; b < kStoredSize; b += 8) {
            const uint64_t word = rng.NextU64();
            std::memcpy(out + b, &word, 8);
          }
        });
    replicas.push_back(std::move(replica).value());
    std::vector<uint8_t> flat;
    const uint64_t cells =
        ExpandProductSelection(ExpandAxisSelections(rng.NextU64(), *g), *g,
                               &flat);
    selections.push_back(std::move(flat));
    selected_bytes.push_back(static_cast<int64_t>(cells * kStoredSize));
  }
  ThreadPool pool(threads);
  int64_t bytes = 0;
  size_t r = 0;
  for (auto _ : state) {
    auto answer = replicas[r].ComputeAnswer(selections[r], &pool);
    benchmark::DoNotOptimize(answer);
    bytes += selected_bytes[r];
    r = (r + 1) % replicas.size();
  }
  state.SetBytesProcessed(bytes);
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_ReplicaSweep)
    ->Arg(0)
    ->Arg(2)
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
