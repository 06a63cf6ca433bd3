// epoch_churn: writes beside reads on the epoch-versioned protected
// database.
//
// Round: submit 16 mutations (8 updates, 4 inserts, 4 deletes of uniformly
// drawn live uids, seeded payloads), Flip(pool), then one batch of 8 reads
// pinned to the new epoch through a flat, preprocessed EpochPirReader. The
// timed op is the round (submit + flip + read): a write, then a read of
// it. Flip and read latencies are also reported on their own, so work
// moved from one side to the other shows there. The traced run replays the flip's stages (copy of
// the pinned base + uids, ApplyMutations, IncrementalMdav, IsKAnonymous,
// TableChecksum) before the real flip, and the reader's replica rebuild
// (SnapshotRecords + Create + Preprocess) after the real read.

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "harness.h"
#include "pir/epoch_pir.h"
#include "sdc/anonymity.h"
#include "sdc/incremental_mdav.h"
#include "service/audit_wal.h"
#include "service/epoch_service.h"
#include "table/datasets.h"
#include "table/mutation.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace tripriv_bench {
namespace {

using tripriv::RowMutation;

constexpr size_t kK = 5;
constexpr size_t kUpdates = 8;
constexpr size_t kInserts = 4;
constexpr size_t kDeletes = 4;
constexpr size_t kReadBatch = 8;
constexpr size_t kSetupRepeats = 3;
constexpr size_t kCounterOps = 16;

struct Backend {
  tripriv::MemWalIo wal_io;
  tripriv::EpochStore store;
  std::optional<tripriv::EpochedDatabase> db;
  std::optional<tripriv::EpochPirReader> reader;
};

struct RoundTimes {
  int64_t submit = 0;
  int64_t flip = 0;
  int64_t read = 0;
  int64_t flip_stages = 0;  // replayed (traced only)
  int64_t rebuild = 0;      // replayed (traced only)
};

}  // namespace

void RunEpochChurn(const Options& options, Tracer* tracer, Report* report) {
  const size_t rows = options.tiny ? 600 : 20000;
  const tripriv::DataTable base = tripriv::MakeCensus(rows, options.seed);
  const tripriv::DataTable payloads =
      tripriv::MakeCensus(1024, options.seed ^ 0xA11CEull);
  tripriv::ThreadPool pool(options.workers);
  tripriv::EpochConfig config;
  config.k = kK;
  config.qi_cols = {*base.schema().IndexOf("age"),
                    *base.schema().IndexOf("education")};
  tripriv::EpochPirOptions read_options;
  read_options.dimensions = 1;
  read_options.preprocess = true;

  // Set-up: bootstrap epoch 1 by a full MDAV run, plus the reader.
  std::unique_ptr<Backend> backend;
  const std::vector<double> setup_s = RepeatSetup(kSetupRepeats, [&] {
    backend.reset();
    auto next = std::make_unique<Backend>();
    const int64_t start = NowNs();
    auto db = tripriv::EpochedDatabase::Create(base, config, &next->wal_io,
                                               &next->store);
    Require(db, "EpochedDatabase::Create");
    next->db.emplace(std::move(db).value());
    next->reader.emplace(next->db->manager(), read_options);
    const int64_t elapsed = NowNs() - start;
    backend = std::move(next);
    return elapsed;
  });
  tripriv::EpochedDatabase& db = *backend->db;
  tripriv::EpochPirReader& reader = *backend->reader;

  tripriv::Rng input_rng(options.seed);
  tripriv::Rng read_rng(options.seed ^ 0x9EADull);
  uint64_t committed = 0;

  auto draw_mutations = [&] {
    tripriv::PinnedEpoch current = db.Pin();
    std::vector<RowMutation> batch;
    std::unordered_set<uint64_t> used;
    auto live_uid = [&] {
      for (;;) {
        const uint64_t uid =
            current->uids[input_rng.UniformU64(current->uids.size())];
        if (used.insert(uid).second) return uid;
      }
    };
    auto payload = [&] {
      return payloads.row(input_rng.UniformU64(payloads.num_rows()));
    };
    for (size_t i = 0; i < kUpdates; ++i) {
      batch.push_back(RowMutation::Update(live_uid(), payload()));
    }
    for (size_t i = 0; i < kInserts; ++i) {
      batch.push_back(RowMutation::Insert(payload()));
    }
    for (size_t i = 0; i < kDeletes; ++i) {
      batch.push_back(RowMutation::Delete(live_uid()));
    }
    return batch;
  };

  std::vector<double> read_ms;
  std::vector<double> copy_us, apply_us, mdav_ms, kanon_us, checksum_us;
  std::vector<double> flip_rest_ms, rebuild_ms, preprocess_ms, coverage;
  size_t op_id = 0;

  auto round = [&](bool replay) {
    RoundTimes t;
    uint64_t op_span = 0;
    if (replay) {
      tracer->set_op(++op_id);
      op_span = tracer->Begin("epoch_churn.round", 0);
    }
    std::vector<RowMutation> batch = draw_mutations();

    // Replayed flip stages on identical inputs, against the pinned epoch.
    uint64_t replay_checksum = 0;
    if (replay) {
      tripriv::PinnedEpoch current = db.Pin();
      tripriv::DataTable next_base;
      std::vector<uint64_t> uids;
      uint64_t next_uid = 0;
      const int64_t copy = tracer->Time("table.copy", op_span, [&] {
        next_base = current->base;
        uids = current->uids;
        next_uid = current->next_uid;
      }, true);
      std::optional<tripriv::MutationApplyResult> applied;
      const int64_t apply = tracer->Time("table.apply", op_span, [&] {
        auto r = tripriv::ApplyMutations(batch, &next_base, &uids, &next_uid);
        Require(r, "ApplyMutations");
        applied.emplace(std::move(r).value());
      }, true);
      std::unordered_map<uint64_t, size_t> prev_group;
      for (size_t i = 0; i < current->uids.size(); ++i) {
        prev_group.emplace(current->uids[i], current->group_of_row[i]);
      }
      std::optional<tripriv::IncrementalMdavResult> maintained;
      const int64_t mdav = tracer->Time("sdc.incremental_mdav", op_span, [&] {
        auto r = tripriv::IncrementalMdav(next_base, uids, config.qi_cols, kK,
                                          prev_group, applied->dirty_uids,
                                          &pool);
        Require(r, "IncrementalMdav");
        maintained.emplace(std::move(r).value());
      }, true);
      bool candidate_ok = false;
      const int64_t kanon = tracer->Time("sdc.kanon_check", op_span, [&] {
        candidate_ok = tripriv::IsKAnonymous(maintained->protected_table, kK,
                                             config.qi_cols);
      }, true);
      ++report->checks;
      if (!candidate_ok) report->CheckFailed("replayed candidate is not k-anonymous");
      const int64_t checksum = tracer->Time("table.checksum", op_span, [&] {
        replay_checksum = tripriv::TableChecksum(maintained->protected_table);
      }, true);
      t.flip_stages = copy + apply + mdav + kanon + checksum;
      copy_us.push_back(static_cast<double>(copy) * 1e-3);
      apply_us.push_back(static_cast<double>(apply) * 1e-3);
      mdav_ms.push_back(static_cast<double>(mdav) * 1e-6);
      kanon_us.push_back(static_cast<double>(kanon) * 1e-3);
      checksum_us.push_back(static_cast<double>(checksum) * 1e-3);
    }

    t.submit = tracer->Time("service.submit_mutations", op_span, [&] {
      for (RowMutation& m : batch) {
        Require(db.SubmitMutation(std::move(m)), "SubmitMutation");
      }
    });
    std::optional<tripriv::Result<uint64_t>> flipped;
    t.flip = tracer->Time("service.flip", op_span,
                          [&] { flipped.emplace(db.Flip(&pool)); });
    report->CountOp(flipped->ok());
    if (flipped->ok()) committed += kUpdates + kInserts + kDeletes;

    tripriv::PinnedEpoch pinned = db.Pin();
    ++report->checks;
    if (!tripriv::IsKAnonymous(pinned->protected_table, kK, config.qi_cols)) {
      report->CheckFailed("published epoch is not k-anonymous on its QIs");
    }
    if (replay) {
      ++report->checks;
      if (pinned->protected_checksum != replay_checksum) {
        report->CheckFailed("replayed flip stages disagree with the epoch");
      }
      flip_rest_ms.push_back(
          static_cast<double>(std::max<int64_t>(t.flip - t.flip_stages, 0)) *
          1e-6);
    }

    std::vector<size_t> indices(kReadBatch);
    for (size_t& index : indices) {
      index = input_rng.UniformU64(pinned->protected_table.num_rows());
    }
    std::optional<tripriv::Result<std::vector<std::vector<uint8_t>>>> reads;
    t.read = tracer->Time("pir.epoch_read_batch", op_span, [&] {
      reads.emplace(reader.ReadBatch(indices, &read_rng, &pool));
    });

    // The snapshot the reads must decode to; in the traced run its
    // rendering is the first stage of the replayed replica rebuild.
    std::vector<std::vector<uint8_t>> snapshot;
    const int64_t render = tracer->Time("pir.snapshot_records", op_span, [&] {
      snapshot = tripriv::SnapshotRecords(pinned->protected_table);
    }, replay);
    if (replay) {
      std::optional<tripriv::XorPirServer> a, b;
      const int64_t create = tracer->Time("pir.create_replicas", op_span, [&] {
        auto ra = tripriv::XorPirServer::Create(snapshot);
        auto rb = tripriv::XorPirServer::Create(snapshot);
        Require(ra, "XorPirServer::Create");
        Require(rb, "XorPirServer::Create");
        a.emplace(std::move(ra).value());
        b.emplace(std::move(rb).value());
      }, true);
      const int64_t preprocess = tracer->Time("pir.preprocess", op_span, [&] {
        a->Preprocess();
        b->Preprocess();
      }, true);
      t.rebuild = render + create + preprocess;
      rebuild_ms.push_back(static_cast<double>(t.rebuild) * 1e-6);
      preprocess_ms.push_back(static_cast<double>(preprocess) * 1e-6);
      coverage.push_back(
          static_cast<double>(std::min(t.flip, t.flip_stages) +
                              std::min(t.read, t.rebuild)) /
          static_cast<double>(t.flip + t.read));
      tracer->End(op_span);
    }
    ++report->checks;
    bool ok = reads->ok() && reader.last_served_epoch() == pinned->epoch;
    for (size_t i = 0; ok && i < indices.size(); ++i) {
      ok = (**reads)[i] == snapshot[indices[i]];
    }
    if (!ok) report->CheckFailed("pinned read differs from SnapshotRecords");
    for (size_t i = 0; i < indices.size(); ++i) report->CountOp(ok);
    return t;
  };

  // Warm-up round (first replica build, allocator growth).
  round(false);

  RssProbe rss;
  const uint64_t wal_before = db.wal().bytes_appended();
  const uint64_t reclustered_before = db.stats().rows_reclustered_total;
  double wal_per_flip = 0.0;
  double reclustered_per_flip = 0.0;
  double loop_s = 0.0;
  const uint64_t committed_before = committed;
  std::vector<double> flip_ms;
  const std::vector<double> round_ms =
      RunTimedLoop(UntracedShare(options), RssProbe::kOps, [&](size_t i) {
        const RoundTimes t = round(false);
        rss.AfterOp(i);
        if (i + 1 == kCounterOps) {
          wal_per_flip =
              static_cast<double>(db.wal().bytes_appended() - wal_before) /
              kCounterOps;
          reclustered_per_flip =
              static_cast<double>(db.stats().rows_reclustered_total -
                                  reclustered_before) /
              kCounterOps;
        }
        flip_ms.push_back(static_cast<double>(t.flip) * 1e-6);
        read_ms.push_back(static_cast<double>(t.read) * 1e-6);
        loop_s += static_cast<double>(t.submit + t.flip + t.read) * 1e-9;
        return t.submit + t.flip + t.read;
      });

  const double mutations_per_s =
      static_cast<double>(committed - committed_before) / loop_s;
  double read_s = 0.0;
  for (double ms : read_ms) read_s += ms * 1e-3;
  const double reads_per_s =
      static_cast<double>(read_ms.size() * kReadBatch) / read_s;
  report->Median("setup_s", "s", MetricKind::kEndToEnd, setup_s);
  report->Value("peak_rss_mb", "MB", MetricKind::kEndToEnd, rss.Peak());
  report->Median("op_p50_ms", "ms", MetricKind::kEndToEnd, round_ms);
  report->Median("flip_p50_ms", "ms", MetricKind::kNamed, flip_ms);
  report->P90("flip_p90_ms", "ms", MetricKind::kNamed, flip_ms);
  report->Value("mutations_per_s", "1/s", MetricKind::kNamed, mutations_per_s,
                flip_ms.size());
  report->Median("read_p50_ms", "ms", MetricKind::kNamed, read_ms);
  report->P90("read_p90_ms", "ms", MetricKind::kNamed, read_ms);
  report->Value("reads_per_s", "1/s", MetricKind::kNamed, reads_per_s,
                read_ms.size());
  report->Value("sdc.rows_reclustered", "count", MetricKind::kLayer,
                reclustered_per_flip, kCounterOps);
  report->Value("service.wal_bytes_per_flip", "bytes", MetricKind::kLayer,
                wal_per_flip, kCounterOps);
  if (!options.trace) return;

  const std::vector<double> traced_round_ms =
      RunTimedLoop(options.seconds - UntracedShare(options), 8, [&](size_t) {
        const RoundTimes t = round(true);
        return t.submit + t.flip + t.read;
      });
  report->Median("table.copy_us", "us", MetricKind::kLayer, copy_us);
  report->Median("table.apply_us", "us", MetricKind::kLayer, apply_us);
  report->Median("sdc.incremental_mdav_ms", "ms", MetricKind::kLayer, mdav_ms);
  report->Median("sdc.kanon_check_us", "us", MetricKind::kLayer, kanon_us);
  report->Median("table.checksum_us", "us", MetricKind::kLayer, checksum_us);
  report->Median("service.flip_rest_ms", "ms", MetricKind::kLayer,
                 flip_rest_ms);
  report->Median("pir.replica_build_ms", "ms", MetricKind::kLayer, rebuild_ms);
  report->Median("pir.preprocess_ms", "ms", MetricKind::kLayer, preprocess_ms);
  report->Median("trace.coverage", "ratio", MetricKind::kLayer, coverage);
  AddTraceOverhead(round_ms, traced_round_ms, report);
}

}  // namespace tripriv_bench
