// Pre-registered instrument handles for the serving stack.
//
// ServiceMetrics bundles a MetricsRegistry, an optional TraceRecorder, and
// an optional PrivacyBudgetAccountant behind an API of primitives — tier
// indices, byte counts, tick values — so the layers it observes
// (src/service, src/pir) never depend on obs types beyond this one header,
// and obs never depends back on them (no cycle). Two flow directions:
//
//   push     event-driven, from the serial serving path: OnAnswer, OnShed,
//            OnWalAppend (fsync-latency histogram), batch-size histograms,
//            epsilon spends;
//   publish  sampled, from an explicit publish step: component self-
//            counters (breaker state, queue depth, PIR failovers) copied
//            into gauges.
//
// Every registered series has code in src/ that writes it, and every value
// is a pure function of the workload, so snapshots are byte-identical at
// 0/1/2/8 threads. To run uninstrumented, attach no bundle.

#pragma once

#include <cstdint>
#include <string>

#include "obs/budget.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/status.h"

namespace tripriv {
namespace obs {

/// Answer tiers as stable indices (mirrors service AnswerTier).
inline constexpr uint8_t kTierProtected = 0;
inline constexpr uint8_t kTierDpDegraded = 1;
inline constexpr uint8_t kTierRefused = 2;

/// Breaker states as stable indices (mirrors util BreakerState).
inline constexpr uint8_t kBreakerClosed = 0;
inline constexpr uint8_t kBreakerOpen = 1;
inline constexpr uint8_t kBreakerHalfOpen = 2;

/// Tenant classes as stable indices. A class is a coarse, allowlisted
/// service tier — NEVER a principal id: attributing sheds and latency by
/// class keeps overload observable without the metrics surface learning who
/// asked (the user-privacy dimension). kClassUnattributed covers callers
/// that predate the traffic scheduler (plain Submit with no class set).
inline constexpr uint8_t kClassInteractive = 0;
inline constexpr uint8_t kClassBatch = 1;
inline constexpr uint8_t kClassAnalytics = 2;
inline constexpr uint8_t kClassAbusive = 3;
inline constexpr uint8_t kClassUnattributed = 4;
inline constexpr uint8_t kNumTenantClasses = 5;

/// Allowlisted label value of one tenant class ("interactive", ...).
const char* TenantClassLabel(uint8_t cls);

/// Shed reasons as stable indices (why the traffic scheduler refused).
inline constexpr uint8_t kShedQueueFull = 0;
inline constexpr uint8_t kShedOverload = 1;
inline constexpr uint8_t kShedDeadline = 2;
inline constexpr uint8_t kNumShedReasons = 3;

/// The accountant principal that mirrors QueryService's one epsilon pool.
/// The degraded path and the aggregate-PIR DP count both draw on that pool,
/// so one principal, with the service's epsilon_budget, is the binding
/// respondent guarantee.
inline constexpr char kEpsilonPrincipal[] = "degraded_path";

/// Handle bundle; see file comment. Create registers every series up
/// front, so the hot path only touches preallocated slots.
class ServiceMetrics {
 public:
  /// `registry` must outlive the bundle; `trace` and `accountant` may be
  /// null (spans / budget mirroring are then skipped).
  static Result<ServiceMetrics> Create(MetricsRegistry* registry,
                                       TraceRecorder* trace,
                                       PrivacyBudgetAccountant* accountant);

  // --- push API (serial serving path) ---------------------------------

  void OnAnswer(uint8_t tier) {
    if (tier <= kTierRefused) tier_counters_[tier]->Increment();
  }
  /// One admission-control shed, attributed to a tenant class so per-class
  /// shed *rates* are observable. `cls` is a kClass* index (an allowlisted
  /// label, never a principal id); out-of-range falls back to unattributed.
  void OnShed(uint8_t cls) {
    shed_->Increment();
    shed_by_class_[cls < kNumTenantClasses ? cls : kClassUnattributed]
        ->Increment();
  }
  void OnPolicyRefusal() { policy_refusals_->Increment(); }
  void OnCrash() { crashes_->Increment(); }
  /// One WAL append attempt: `bytes` framed, `ok` durable. The fsync-tick
  /// histogram uses the deterministic device model in WalFsyncTicks.
  void OnWalAppend(uint64_t bytes, bool ok) {
    if (ok) {
      wal_appends_->Increment();
      wal_bytes_->Add(bytes);
      wal_fsync_ticks_->Observe(WalFsyncTicks(bytes));
    } else {
      wal_append_failures_->Increment();
    }
  }
  void OnStatBatch(uint64_t size) { stat_batch_size_->Observe(size); }
  void OnPirBatch(uint64_t size) { pir_batch_size_->Observe(size); }
  void OnPirRead() { pir_reads_->Increment(); }
  /// Mirrors one durable epsilon spend into the accountant's gauges.
  void OnEpsilonSpend(double epsilon) {
    if (accountant_ != nullptr) {
      IgnoreError(accountant_->RecordSpend(kEpsilonPrincipal, epsilon));
    }
  }
  /// Mirrors the service's epsilon pool into the accountant: registers
  /// kEpsilonPrincipal with `budget` (a re-attach finds it already
  /// registered, which is fine) and raises its spend to `recovered`, the
  /// ABSOLUTE WAL-recovered total. The sync is idempotent: recovering the
  /// same WAL twice (crash, re-Create, re-attach to the same accountant)
  /// leaves the gauges where one recovery put them instead of
  /// double-charging the spend.
  void MirrorEpsilonPool(double budget, double recovered) {
    if (accountant_ != nullptr) {
      IgnoreError(accountant_->RegisterPrincipal(
          kEpsilonPrincipal, PrivacyDimension::kRespondent, budget));
      IgnoreError(
          accountant_->SyncRecoveredSpend(kEpsilonPrincipal, recovered));
    }
  }

  // --- publish API (sampled component counters -> gauges) -------------

  void PublishQueueDepth(uint64_t depth) {
    queue_depth_->Set(static_cast<double>(depth));
  }
  void PublishBreaker(bool primary, uint8_t state, uint64_t opens,
                      uint64_t rejections, uint64_t half_open_probes) {
    const size_t i = primary ? 0 : 1;
    breaker_state_[i]->Set(static_cast<double>(state));
    breaker_opens_[i]->Set(static_cast<double>(opens));
    breaker_rejections_[i]->Set(static_cast<double>(rejections));
    breaker_probes_[i]->Set(static_cast<double>(half_open_probes));
  }
  void PublishPir(uint64_t bytes_xored, uint64_t failovers,
                  uint64_t corrupt_answers, uint64_t queries_answered) {
    pir_bytes_xored_->Set(static_cast<double>(bytes_xored));
    pir_failovers_->Set(static_cast<double>(failovers));
    pir_corrupt_->Set(static_cast<double>(corrupt_answers));
    pir_queries_->Set(static_cast<double>(queries_answered));
  }
  /// Recursive-PIR transport series: query upload shipped, hypercube cells
  /// expanded server-side, bytes pinned by preprocessed dense layouts,
  /// and live expansion sessions (all aggregates over allowlisted tenant
  /// classes — never per-principal).
  void PublishPirTransport(uint64_t upload_bits, uint64_t expanded_cells,
                           uint64_t preprocess_bytes, uint64_t sessions) {
    pir_upload_bits_->Set(static_cast<double>(upload_bits));
    pir_expanded_cells_->Set(static_cast<double>(expanded_cells));
    pir_preprocess_bytes_->Set(static_cast<double>(preprocess_bytes));
    pir_sessions_->Set(static_cast<double>(sessions));
  }

  /// Deterministic fsync-latency model of the simulated WAL device: one
  /// base tick plus one tick per 64 framed bytes. Accounted, not charged —
  /// the request clock is untouched, so attaching instruments never
  /// changes serving behaviour.
  static uint64_t WalFsyncTicks(uint64_t bytes) { return 1 + bytes / 64; }

  /// The attached recorder, or null when spans are not recorded.
  TraceRecorder* trace() const { return trace_; }
  PrivacyBudgetAccountant* accountant() const { return accountant_; }

 private:
  ServiceMetrics() = default;

  TraceRecorder* trace_ = nullptr;
  PrivacyBudgetAccountant* accountant_ = nullptr;

  Counter* tier_counters_[3] = {nullptr, nullptr, nullptr};
  Counter* shed_ = nullptr;
  Counter* shed_by_class_[kNumTenantClasses] = {nullptr, nullptr, nullptr,
                                                nullptr, nullptr};
  Counter* policy_refusals_ = nullptr;
  Counter* crashes_ = nullptr;
  Counter* wal_appends_ = nullptr;
  Counter* wal_append_failures_ = nullptr;
  Counter* wal_bytes_ = nullptr;
  Histogram* wal_fsync_ticks_ = nullptr;
  Histogram* stat_batch_size_ = nullptr;
  Histogram* pir_batch_size_ = nullptr;
  Counter* pir_reads_ = nullptr;
  Gauge* queue_depth_ = nullptr;
  Gauge* breaker_state_[2] = {nullptr, nullptr};
  Gauge* breaker_opens_[2] = {nullptr, nullptr};
  Gauge* breaker_rejections_[2] = {nullptr, nullptr};
  Gauge* breaker_probes_[2] = {nullptr, nullptr};
  Gauge* pir_bytes_xored_ = nullptr;
  Gauge* pir_failovers_ = nullptr;
  Gauge* pir_corrupt_ = nullptr;
  Gauge* pir_queries_ = nullptr;
  Gauge* pir_upload_bits_ = nullptr;
  Gauge* pir_expanded_cells_ = nullptr;
  Gauge* pir_preprocess_bytes_ = nullptr;
  Gauge* pir_sessions_ = nullptr;
};

/// Stable indices for mutation kinds (mirrors table MutationKind).
inline constexpr uint8_t kMutationInsert = 0;
inline constexpr uint8_t kMutationDelete = 1;
inline constexpr uint8_t kMutationUpdate = 2;

/// Handle bundle for the epoch-versioned mutable database
/// (service/epoch_service.h): epoch gauges, flip-latency histograms, and
/// refused-flip counters. Same discipline as ServiceMetrics — push calls
/// come from the serial flip path, publish calls from an explicit publish
/// step, and every series is a pure function of the workload (flip latency
/// is SimClock ticks from the deterministic cost model, so snapshots stay
/// byte-identical at any thread count).
class EpochMetrics {
 public:
  /// `registry` must outlive the bundle.
  static Result<EpochMetrics> Create(MetricsRegistry* registry);

  // --- push API (serial flip / write-admission path) -------------------

  void OnMutationAdmitted(uint8_t kind) {
    if (kind <= kMutationUpdate) mutation_counters_[kind]->Increment();
  }
  void OnMutationShed() { mutations_shed_->Increment(); }
  void OnFlipCommitted(uint64_t latency_ticks, uint64_t rows_reclustered) {
    flips_committed_->Increment();
    flip_latency_ticks_->Observe(latency_ticks);
    rows_reclustered_->Add(rows_reclustered);
  }
  /// A refused flip: `privacy_gate` distinguishes the fail-closed k-gate
  /// from store/WAL faults and invalid batches.
  void OnFlipRefused(bool privacy_gate) {
    (privacy_gate ? flips_refused_privacy_ : flips_refused_io_)->Increment();
  }

  // --- publish API (sampled epoch state -> gauges) ---------------------

  void PublishEpochState(uint64_t epoch, uint64_t live_epochs,
                         uint64_t peak_live_epochs,
                         uint64_t pending_mutations, uint64_t store_images) {
    current_epoch_->Set(static_cast<double>(epoch));
    live_epochs_->Set(static_cast<double>(live_epochs));
    peak_live_epochs_->Set(static_cast<double>(peak_live_epochs));
    pending_mutations_->Set(static_cast<double>(pending_mutations));
    store_images_->Set(static_cast<double>(store_images));
  }

 private:
  EpochMetrics() = default;

  Counter* mutation_counters_[3] = {nullptr, nullptr, nullptr};
  Counter* mutations_shed_ = nullptr;
  Counter* flips_committed_ = nullptr;
  Counter* flips_refused_privacy_ = nullptr;
  Counter* flips_refused_io_ = nullptr;
  Counter* rows_reclustered_ = nullptr;
  Histogram* flip_latency_ticks_ = nullptr;
  Gauge* current_epoch_ = nullptr;
  Gauge* live_epochs_ = nullptr;
  Gauge* peak_live_epochs_ = nullptr;
  Gauge* pending_mutations_ = nullptr;
  Gauge* store_images_ = nullptr;
};

/// Handle bundle for the traffic scheduler (service/traffic/): per-class
/// arrival/answer/shed counters, the per-class latency le-histograms the
/// SloGate reads p50/p99 from, and backlog gauges. Same discipline as the
/// other bundles — push calls come from the serial scheduler loop, publish
/// calls from an explicit publish step, and every label is a class or
/// reason constant (never a principal id). Latency values are SimClock
/// ticks, so snapshots stay byte-identical at any thread count.
class TrafficMetrics {
 public:
  /// `registry` must outlive the bundle.
  static Result<TrafficMetrics> Create(MetricsRegistry* registry);

  // --- push API (serial scheduler loop) --------------------------------

  void OnArrival(uint8_t cls) {
    if (cls < kNumTenantClasses) arrivals_[cls]->Increment();
  }
  /// One scheduler-side shed: `reason` is a kShed* index.
  void OnShed(uint8_t cls, uint8_t reason) {
    if (cls < kNumTenantClasses && reason < kNumShedReasons) {
      shed_[cls][reason]->Increment();
    }
  }
  /// One released answer by degradation tier (kTier* index).
  void OnAnswer(uint8_t cls, uint8_t tier) {
    if (cls < kNumTenantClasses && tier <= kTierRefused) {
      answers_[cls][tier]->Increment();
    }
  }
  /// Queue-to-completion latency of one served request, in sim ticks.
  void OnLatency(uint8_t cls, uint64_t ticks) {
    if (cls < kNumTenantClasses) latency_[cls]->Observe(ticks);
  }

  // --- publish API (sampled scheduler state -> gauges) -----------------

  void PublishBacklog(uint8_t cls, uint64_t depth) {
    if (cls < kNumTenantClasses) backlog_[cls]->Set(static_cast<double>(depth));
  }

 private:
  TrafficMetrics() = default;

  Counter* arrivals_[kNumTenantClasses] = {};
  Counter* shed_[kNumTenantClasses][kNumShedReasons] = {};
  Counter* answers_[kNumTenantClasses][3] = {};
  Histogram* latency_[kNumTenantClasses] = {};
  Gauge* backlog_[kNumTenantClasses] = {};
};

/// Privacy dimensions as stable indices (mirrors core Dimension; obs stays
/// below core in the link order, so the enum is not shared).
inline constexpr uint8_t kDimRespondent = 0;
inline constexpr uint8_t kDimOwner = 1;
inline constexpr uint8_t kDimUser = 2;
inline constexpr uint8_t kNumDimensions = 3;

/// Handle bundle for the adversary harness (src/attack/): outcome counters
/// and the latest success-rate / equivocation gauges, labeled by privacy
/// dimension. Attack outcomes are aggregates over a whole attack run —
/// success rates, bit counts — never the recovered records themselves, so
/// the series stay inside the label allowlist by construction. Same
/// discipline as the other bundles: push calls come from the serial
/// attack-suite loop only (gauges are serial-only).
class AttackMetrics {
 public:
  /// `registry` must outlive the bundle.
  static Result<AttackMetrics> Create(MetricsRegistry* registry);

  // --- push API (serial attack-suite loop) -----------------------------

  /// One finished attack: `dim` is a kDim* index; the gauges keep the most
  /// recent outcome per dimension (the scoreboard holds the full history).
  void OnOutcome(uint8_t dim, double success_rate, double equivocation_bits) {
    if (dim < kNumDimensions) {
      outcomes_[dim]->Increment();
      success_rate_[dim]->Set(success_rate);
      equivocation_bits_[dim]->Set(equivocation_bits);
    }
  }

 private:
  AttackMetrics() = default;

  Counter* outcomes_[kNumDimensions] = {};
  Gauge* success_rate_[kNumDimensions] = {};
  Gauge* equivocation_bits_[kNumDimensions] = {};
};

}  // namespace obs
}  // namespace tripriv
