// The mutable protected database: write admission, WAL-journaled epoch
// flips, and the fail-closed respondent-privacy gate.
//
// Everything upstream of this file serves a static snapshot: anonymize
// once, serve forever. EpochedDatabase makes the snapshot a *sequence* —
// writers submit RowMutations into a bounded pending buffer, and Flip()
// turns the buffer into the next epoch under one invariant borrowed from
// the PR 3 degradation ladder: **never publish unprotected**. A flip that
// cannot prove the new table keeps every MDAV group at size >= k (and the
// table k-anonymous on the QI columns) is refused with a typed Status and
// the old epoch keeps serving, exactly as a broken backend degrades to a
// refusal rather than an unprotected answer.
//
// Flip state machine (section 11 of DESIGN.md):
//
//   Idle
//    └─ Flip(): WAL kEpochFlipBegin (intent, durable)
//        └─ build candidate: copy-on-write apply + incremental MDAV
//            ├─ gate FAILS  → WAL kEpochFlipAbort(privacy), pending buffer
//            │                restored, old epoch serves  [fail closed]
//            ├─ I/O fault   → WAL kEpochFlipAbort(io), staged image erased,
//            │                old epoch serves            [fail closed]
//            └─ gate holds  → EpochStore Put + Sync (data durable FIRST)
//                └─ WAL kEpochFlipCommit (ack-after-commit)
//                    └─ EpochManager::Publish (readers see it atomically)
//
// Crash safety: recovery (Create on the surviving WAL + store) adopts the
// epoch of the LAST durable kEpochFlipCommit record, verifies the stored
// image against the record's table checksum, and garbage-collects every
// other image. A crash at any byte of the WAL therefore lands on exactly
// the old or the new epoch — the commit record is durable or it is not —
// and never on a torn hybrid; the chaos suite drives FaultyWalIo through
// every record boundary to prove it.
//
// Determinism: flips draw no randomness, the incremental MDAV pass is
// bit-identical at any thread count, and flip latency is charged to a
// SimClock from a deterministic cost model — the WAL byte stream, the
// epoch contents, and every metric are pure functions of the mutation
// sequence.

#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "obs/instruments.h"
#include "sdc/incremental_mdav.h"
#include "service/audit_wal.h"
#include "table/data_table.h"
#include "table/mutation.h"
#include "table/versioned_table.h"
#include "util/clock.h"
#include "util/status.h"

namespace tripriv {

class ThreadPool;

/// Configuration of the mutable protected database.
struct EpochConfig {
  /// Minimum MDAV group size — the respondent-privacy floor every epoch
  /// must prove before it may serve.
  size_t k = 3;
  /// Numeric quasi-identifier columns that are centroid-masked and gated.
  std::vector<size_t> qi_cols;
  /// Write admission: pending mutations beyond this are shed with
  /// kResourceExhausted (the write-side analog of the PR 3 query queue).
  size_t max_pending_mutations = 1024;
  /// Hard bound on live epochs (current + pinned retirees); Flip blocks
  /// until readers drain below it. See EpochManager.
  size_t max_live_epochs = 2;
  /// Deterministic flip cost model, charged to the SimClock:
  /// base + per_row * rows_reclustered ticks.
  uint64_t flip_base_ticks = 8;
  uint64_t flip_ticks_per_row = 1;
};

/// Serving statistics of the mutation subsystem.
struct EpochStats {
  uint64_t mutations_admitted = 0;
  uint64_t mutations_shed = 0;
  uint64_t mutations_applied = 0;
  uint64_t flips_attempted = 0;
  uint64_t flips_committed = 0;
  /// Fail-closed refusals: a group would have dropped below k.
  uint64_t flips_refused_privacy = 0;
  /// Store/WAL faults and invalid batches.
  uint64_t flips_refused_io = 0;
  uint64_t rows_reclustered_total = 0;
  /// Epoch adopted from a predecessor's WAL at Create (0 = fresh start).
  uint64_t recovered_epoch = 0;
};

/// Epoch-versioned mutable protected database; see file comment. Flip and
/// SubmitMutation are single-writer (call them from one thread); Pin() and
/// everything reachable through a pin are safe from any thread.
class EpochedDatabase {
 public:
  /// Builds the database over `wal_io` + `store`, both of which must
  /// outlive it and may hold the torn remains of a crashed predecessor.
  /// With no committed flip in the WAL, epoch 1 is bootstrapped from
  /// `initial_base` (full MDAV + gate; a base that cannot meet k is
  /// refused with kFailedPrecondition, one with a NaN or infinite QI value
  /// with kInvalidArgument — the database never starts unprotected). With
  /// a committed flip, the last committed epoch is adopted from the store,
  /// checksum-verified, and `initial_base` is ignored.
  static Result<EpochedDatabase> Create(const DataTable& initial_base,
                                        EpochConfig config, WalIo* wal_io,
                                        EpochStore* store);

  EpochedDatabase(EpochedDatabase&&) = default;
  EpochedDatabase& operator=(EpochedDatabase&&) = default;

  /// Queues one mutation for the next flip. Sheds with kResourceExhausted
  /// when the pending buffer is full; payload errors surface at Flip.
  Status SubmitMutation(RowMutation mutation);

  /// Builds, gates, journals, and publishes the next epoch from the
  /// pending buffer (empty buffer = a pure re-verification flip). Returns
  /// the new epoch number, or:
  ///   kFailedPrecondition  the privacy gate refused (pending buffer kept —
  ///                        add covering inserts and retry);
  ///   kInvalidArgument /
  ///   kNotFound            the batch was invalid (dropped — transactional);
  ///   kUnavailable         store/WAL fault (pending buffer kept).
  /// On every non-OK outcome the previous epoch keeps serving.
  Result<uint64_t> Flip(ThreadPool* workers = nullptr);

  /// Pins the current epoch for a consistent read (thread-safe).
  PinnedEpoch Pin() { return manager_->Pin(); }

  /// The manager, for snapshot-pinned read paths (pir/epoch_pir.h).
  EpochManager* manager() { return manager_.get(); }

  uint64_t epoch() const { return manager_->current_epoch(); }
  size_t pending_mutations() const { return pending_.size(); }
  const EpochStats& stats() const { return stats_; }
  const AuditWal& wal() const { return wal_; }
  SimClock* sim_clock() { return clock_.get(); }
  const EpochConfig& config() const { return config_; }

  /// Attaches an observability bundle (null detaches; must outlive the
  /// database). Recovery state is mirrored with absolute Sets, so
  /// re-attaching after a crash never double-applies epoch counters.
  void AttachInstruments(obs::EpochMetrics* metrics);
  /// Copies sampled epoch state (current epoch, live epochs, pending
  /// depth, store footprint) into the attached bundle's gauges.
  void PublishMetrics();

 private:
  EpochedDatabase(EpochConfig config, WalIo* wal_io, EpochStore* store);

  /// Applies `batch` to a copy of the current epoch and runs incremental
  /// MDAV maintenance; returns the candidate next epoch.
  Result<std::shared_ptr<EpochData>> BuildCandidate(
      const std::vector<RowMutation>& batch, uint64_t target_epoch,
      ThreadPool* workers, IncrementalMdavResult* maintenance,
      MutationApplyResult* applied);
  /// The fail-closed respondent-privacy gate over a candidate.
  Status GateRespondentPrivacy(const EpochData& candidate,
                               size_t min_group_size) const;
  /// Appends a flip record, tolerating append failure on the abort path
  /// (the refusal stands whether or not it could be journaled).
  void JournalAbort(uint64_t target_epoch, WalFlipAbortReason reason);
  /// Bootstraps epoch 1 from `initial_base` (full MDAV + gate + journal).
  Status BootstrapFirstEpoch(const DataTable& initial_base,
                             ThreadPool* workers);

  EpochConfig config_;
  std::unique_ptr<SimClock> clock_;
  AuditWal wal_;
  EpochStore* store_;
  std::unique_ptr<EpochManager> manager_;
  std::deque<RowMutation> pending_;
  EpochStats stats_;
  obs::EpochMetrics* metrics_ = nullptr;
};

}  // namespace tripriv
