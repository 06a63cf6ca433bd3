// Epoch flip costs: what a live mutable protected database pays per write.
//
// Five questions, one file. (1) Flip throughput by mutation batch size —
// the WAL + copy-on-write + incremental-MDAV + gate pipeline, end to end.
// (2) What incremental maintenance buys over a full recluster: the same
// maintenance call at dirty-set sizes from one row to the whole table
// (the last row IS the full-recluster baseline). (3) The read side under
// versioning: pinned two-server PIR batch reads through the epoch cache at
// several thread counts. (4) What standing the database up costs: the
// epoch-1 bootstrap, a full MDAV run over a census-scale base table.
// (5) What each full-table stage of one flip costs at that scale, on its
// own: apply, incremental MDAV, the k-gate, the checksum and the replica
// render.
//
// Flips draw no randomness and the WAL device is in-memory, so the numbers
// isolate the protection pipeline itself, not disk or entropy.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <numeric>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "pir/epoch_pir.h"
#include "sdc/anonymity.h"
#include "sdc/incremental_mdav.h"
#include "service/epoch_service.h"
#include "table/datasets.h"
#include "table/mutation.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace tripriv {
namespace {

constexpr size_t kRows = 2000;

EpochConfig BenchConfig() {
  EpochConfig config;
  config.k = 25;
  config.qi_cols = {0, 1};
  config.max_pending_mutations = 4096;
  return config;
}

/// End-to-end flip throughput by mutation batch size: every iteration
/// journals, rebuilds, re-clusters the dirty groups, re-verifies the
/// privacy gate, syncs the image, and publishes.
void BM_EpochFlip(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  MemWalIo wal;
  EpochStore store;
  auto db = EpochedDatabase::Create(MakeClinicalTrial(kRows, 3), BenchConfig(),
                                    &wal, &store);
  TRIPRIV_CHECK(db.ok()) << db.status().ToString();
  uint64_t next = 0;
  for (auto _ : state) {
    for (size_t m = 0; m < batch; ++m) {
      const uint64_t uid = next++ % kRows;
      TRIPRIV_CHECK(
          db->SubmitMutation(
                RowMutation::Update(uid, {160 + static_cast<int>(uid % 30),
                                          60 + static_cast<int>(uid % 40),
                                          140, "N"}))
              .ok());
    }
    auto flipped = db->Flip();
    TRIPRIV_CHECK(flipped.ok()) << flipped.status().ToString();
    benchmark::DoNotOptimize(flipped);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
  state.counters["rows"] = static_cast<double>(kRows);
  state.counters["batch"] = static_cast<double>(batch);
}
BENCHMARK(BM_EpochFlip)->Arg(1)->Arg(16)->Arg(64)->Unit(
    benchmark::kMillisecond);

/// The incremental-maintenance ablation: identical table, identical
/// previous grouping, dirty sets from a single row up to every row. The
/// full-table row is exactly what a non-incremental flip would pay.
void BM_IncrementalMdavMaintenance(benchmark::State& state) {
  const size_t dirty = static_cast<size_t>(state.range(0));
  const DataTable base = MakeClinicalTrial(4000, 7);
  const std::vector<size_t> cols = {0, 1};
  std::vector<uint64_t> uids(base.num_rows());
  for (size_t i = 0; i < uids.size(); ++i) uids[i] = i;

  // One bootstrap pass builds the previous epoch's grouping.
  auto bootstrap = IncrementalMdav(base, uids, cols, 25, {}, {});
  TRIPRIV_CHECK(bootstrap.ok());
  std::unordered_map<uint64_t, size_t> prev;
  for (size_t r = 0; r < uids.size(); ++r) {
    prev[uids[r]] = bootstrap->group_of_row[r];
  }
  std::vector<uint64_t> dirty_uids(dirty);
  for (size_t i = 0; i < dirty; ++i) dirty_uids[i] = i;

  size_t reclustered = 0;
  for (auto _ : state) {
    auto result = IncrementalMdav(base, uids, cols, 25, prev, dirty_uids);
    TRIPRIV_CHECK(result.ok());
    reclustered = result->rows_reclustered;
    benchmark::DoNotOptimize(result);
  }
  state.counters["dirty"] = static_cast<double>(dirty);
  state.counters["reclustered"] = static_cast<double>(reclustered);
}
BENCHMARK(BM_IncrementalMdavMaintenance)
    ->Arg(1)
    ->Arg(64)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond);

/// The epoch-1 bootstrap: `Create` runs a full MDAV over every row (k = 5
/// on age and education, 20,000 census rows), gates it, syncs the image
/// and journals the commit. MDAV dominates; the counter pins the grouping.
void BM_EpochBootstrap(benchmark::State& state) {
  const DataTable base = MakeCensus(20000, 11);
  EpochConfig config;
  config.k = 5;
  config.qi_cols = {*base.schema().IndexOf("age"),
                    *base.schema().IndexOf("education")};
  size_t groups = 0;
  for (auto _ : state) {
    MemWalIo wal;
    EpochStore store;
    auto db = EpochedDatabase::Create(base, config, &wal, &store);
    TRIPRIV_CHECK(db.ok()) << db.status().ToString();
    groups = db->Pin()->num_groups;
    benchmark::DoNotOptimize(db);
  }
  state.counters["rows"] = static_cast<double>(base.num_rows());
  state.counters["groups"] = static_cast<double>(groups);
}
BENCHMARK(BM_EpochBootstrap)->Unit(benchmark::kMillisecond);

/// One flip's inputs at census scale, built once: a 20,000-row epoch
/// bootstrapped by a full MDAV run (k = 5 on age and education), a batch of
/// 8 updates, 4 inserts and 4 deletes of distinct live uids with census
/// payloads, that batch applied, and the maintained candidate.
struct FlipStageInputs {
  std::vector<size_t> cols;
  DataTable base;
  std::vector<uint64_t> uids;
  uint64_t next_uid = 0;
  std::unordered_map<uint64_t, size_t> prev_group_of_uid;
  std::vector<RowMutation> batch;
  DataTable next_base;
  std::vector<uint64_t> next_uids;
  MutationApplyResult applied;
  IncrementalMdavResult candidate;
};

constexpr size_t kFlipK = 5;

const FlipStageInputs& FlipInputs() {
  static const FlipStageInputs inputs = [] {
    FlipStageInputs in;
    in.base = MakeCensus(20000, 11);
    in.cols = {*in.base.schema().IndexOf("age"),
               *in.base.schema().IndexOf("education")};
    in.uids.resize(in.base.num_rows());
    std::iota(in.uids.begin(), in.uids.end(), uint64_t{0});
    in.next_uid = in.uids.size();
    auto bootstrap = IncrementalMdav(in.base, in.uids, in.cols, kFlipK, {}, {});
    TRIPRIV_CHECK(bootstrap.ok()) << bootstrap.status().ToString();
    for (size_t r = 0; r < in.uids.size(); ++r) {
      in.prev_group_of_uid.emplace(in.uids[r], bootstrap->group_of_row[r]);
    }

    const DataTable payloads = MakeCensus(1024, 12);
    Rng rng(701);
    std::unordered_set<uint64_t> used;
    auto live_uid = [&] {
      for (;;) {
        const uint64_t uid = in.uids[rng.UniformU64(in.uids.size())];
        if (used.insert(uid).second) return uid;
      }
    };
    auto payload = [&] { return payloads.row(rng.UniformU64(payloads.num_rows())); };
    for (int i = 0; i < 8; ++i) {
      in.batch.push_back(RowMutation::Update(live_uid(), payload()));
    }
    for (int i = 0; i < 4; ++i) in.batch.push_back(RowMutation::Insert(payload()));
    for (int i = 0; i < 4; ++i) in.batch.push_back(RowMutation::Delete(live_uid()));

    in.next_base = in.base;
    in.next_uids = in.uids;
    uint64_t next_uid = in.next_uid;
    auto applied = ApplyMutations(in.batch, &in.next_base, &in.next_uids, &next_uid);
    TRIPRIV_CHECK(applied.ok()) << applied.status().ToString();
    in.applied = std::move(applied).value();
    auto candidate = IncrementalMdav(in.next_base, in.next_uids, in.cols, kFlipK,
                                     in.prev_group_of_uid, in.applied.dirty_uids);
    TRIPRIV_CHECK(candidate.ok()) << candidate.status().ToString();
    in.candidate = std::move(candidate).value();
    return in;
  }();
  return inputs;
}

enum class FlipStage { kApply, kIncrementalMdav, kKanon, kChecksum, kSnapshot };

/// One full-table stage of a flip, timed alone on FlipInputs(). Apply edits
/// a fresh copy of the epoch each iteration; the copy is not timed.
void BM_FlipStage(benchmark::State& state, FlipStage stage) {
  const FlipStageInputs& in = FlipInputs();
  const DataTable& candidate = in.candidate.protected_table;
  switch (stage) {
    case FlipStage::kApply: {
      DataTable base;
      std::vector<uint64_t> uids;
      for (auto _ : state) {
        state.PauseTiming();
        base = in.base;
        uids = in.uids;
        uint64_t next_uid = in.next_uid;
        state.ResumeTiming();
        auto applied = ApplyMutations(in.batch, &base, &uids, &next_uid);
        TRIPRIV_CHECK(applied.ok());
        benchmark::DoNotOptimize(applied);
      }
      break;
    }
    case FlipStage::kIncrementalMdav:
      for (auto _ : state) {
        auto maintained =
            IncrementalMdav(in.next_base, in.next_uids, in.cols, kFlipK,
                            in.prev_group_of_uid, in.applied.dirty_uids);
        TRIPRIV_CHECK(maintained.ok());
        benchmark::DoNotOptimize(maintained);
      }
      state.counters["reclustered"] =
          static_cast<double>(in.candidate.rows_reclustered);
      break;
    case FlipStage::kKanon:
      for (auto _ : state) {
        bool ok = IsKAnonymous(candidate, kFlipK, in.cols);
        TRIPRIV_CHECK(ok);
        benchmark::DoNotOptimize(ok);
      }
      break;
    case FlipStage::kChecksum:
      for (auto _ : state) {
        uint64_t checksum = TableChecksum(candidate);
        benchmark::DoNotOptimize(checksum);
      }
      break;
    case FlipStage::kSnapshot:
      for (auto _ : state) {
        auto records = SnapshotRecords(candidate);
        benchmark::DoNotOptimize(records.data());
        benchmark::ClobberMemory();
      }
      break;
  }
  state.counters["rows"] = static_cast<double>(candidate.num_rows());
}
BENCHMARK_CAPTURE(BM_FlipStage, apply, FlipStage::kApply)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_FlipStage, incremental_mdav, FlipStage::kIncrementalMdav)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_FlipStage, kanon, FlipStage::kKanon)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_FlipStage, checksum, FlipStage::kChecksum)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_FlipStage, snapshot, FlipStage::kSnapshot)
    ->Unit(benchmark::kMicrosecond);

/// Pinned PIR batch reads through the epoch replica cache — the steady-
/// state read path a reader pays while writers build the next version.
void BM_PinnedEpochBatchRead(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  MemWalIo wal;
  EpochStore store;
  auto db = EpochedDatabase::Create(MakeClinicalTrial(kRows, 5), BenchConfig(),
                                    &wal, &store);
  TRIPRIV_CHECK(db.ok()) << db.status().ToString();
  EpochPirReader reader(db->manager());
  ThreadPool pool(threads);
  Rng rng(13);
  std::vector<size_t> indices(64);
  for (size_t i = 0; i < indices.size(); ++i) {
    indices[i] = static_cast<size_t>(rng.UniformU64(kRows));
  }
  for (auto _ : state) {
    auto answers = reader.ReadBatch(indices, &rng, &pool);
    TRIPRIV_CHECK(answers.ok());
    benchmark::DoNotOptimize(answers);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(indices.size()));
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_PinnedEpochBatchRead)
    ->Arg(0)
    ->Arg(2)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace tripriv

BENCHMARK_MAIN();
