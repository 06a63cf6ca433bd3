#include "obs/instruments.h"

#include <vector>

namespace tripriv {
namespace obs {

const char* TenantClassLabel(uint8_t cls) {
  // Stable allowlisted label values; see the kClass* indices. These are
  // service-tier constants, never rendered from request data.
  static const char* const kNames[kNumTenantClasses] = {
      "interactive", "batch", "analytics", "abusive", "unattributed"};
  return cls < kNumTenantClasses ? kNames[cls] : "unattributed";
}

namespace {
const char* const kShedReasonNames[kNumShedReasons] = {"queue_full",
                                                       "overload", "deadline"};
}  // namespace

Result<ServiceMetrics> ServiceMetrics::Create(
    MetricsRegistry* registry, TraceRecorder* trace,
    PrivacyBudgetAccountant* accountant) {
  if (registry == nullptr) {
    return Status::InvalidArgument("ServiceMetrics requires a registry");
  }
  ServiceMetrics metrics;
  metrics.trace_ = trace;
  metrics.accountant_ = accountant;

  static const char* kTierValues[3] = {"protected", "dp_degraded", "refused"};
  for (int t = 0; t < 3; ++t) {
    TRIPRIV_ASSIGN_OR_RETURN(
        metrics.tier_counters_[t],
        registry->RegisterCounter("tripriv_service_answers_total",
                                  "Answers released, by degradation tier",
                                  {{"tier", kTierValues[t]}}));
  }
  TRIPRIV_ASSIGN_OR_RETURN(
      metrics.shed_,
      registry->RegisterCounter("tripriv_service_shed_total",
                                "Queries shed by admission control"));
  // The shed counter alone says the front door closed; the class label says
  // on whom — which is what makes shed rates attributable without ever
  // labeling a principal.
  for (uint8_t c = 0; c < kNumTenantClasses; ++c) {
    TRIPRIV_ASSIGN_OR_RETURN(
        metrics.shed_by_class_[c],
        registry->RegisterCounter("tripriv_service_shed_by_class_total",
                                  "Queries shed by admission control, "
                                  "by tenant class",
                                  {{"class", TenantClassLabel(c)}}));
  }
  TRIPRIV_ASSIGN_OR_RETURN(
      metrics.policy_refusals_,
      registry->RegisterCounter("tripriv_service_policy_refusals_total",
                                "Queries refused by the owner policy gate",
                                {{"dimension", "owner"}}));
  TRIPRIV_ASSIGN_OR_RETURN(
      metrics.crashes_,
      registry->RegisterCounter("tripriv_service_crashes_total",
                                "Simulated crash/recovery cycles"));
  TRIPRIV_ASSIGN_OR_RETURN(
      metrics.wal_appends_,
      registry->RegisterCounter("tripriv_wal_appends_total",
                                "Audit WAL records made durable"));
  TRIPRIV_ASSIGN_OR_RETURN(
      metrics.wal_append_failures_,
      registry->RegisterCounter("tripriv_wal_append_failures_total",
                                "Audit WAL appends that failed"));
  TRIPRIV_ASSIGN_OR_RETURN(
      metrics.wal_bytes_,
      registry->RegisterCounter("tripriv_wal_bytes_total",
                                "Framed bytes appended to the audit WAL"));
  TRIPRIV_ASSIGN_OR_RETURN(
      metrics.wal_fsync_ticks_,
      registry->RegisterHistogram(
          "tripriv_wal_fsync_ticks",
          "Modeled fsync latency per WAL append, in sim ticks",
          {1, 2, 4, 8, 16, 32, 64, 128, 256}));
  TRIPRIV_ASSIGN_OR_RETURN(
      metrics.stat_batch_size_,
      registry->RegisterHistogram("tripriv_stat_batch_size",
                                  "Queries per statistical batch",
                                  {1, 2, 4, 8, 16, 32, 64, 128}));
  TRIPRIV_ASSIGN_OR_RETURN(
      metrics.pir_batch_size_,
      registry->RegisterHistogram("tripriv_pir_batch_size",
                                  "Record fetches per PIR batch",
                                  {1, 2, 4, 8, 16, 32, 64, 128},
                                  {{"dimension", "user"}}));
  TRIPRIV_ASSIGN_OR_RETURN(
      metrics.pir_reads_,
      registry->RegisterCounter("tripriv_pir_reads_total",
                                "Private record fetches served",
                                {{"dimension", "user"}}));
  TRIPRIV_ASSIGN_OR_RETURN(
      metrics.queue_depth_,
      registry->RegisterGauge("tripriv_service_queue_depth",
                              "Admission-control queue depth at publish"));
  // The service's two breakers: the exact primary path and the epsilon-DP
  // degraded path.
  static const char* kBackends[2] = {"primary", "dp"};
  for (int b = 0; b < 2; ++b) {
    const LabelSet labels = {{"backend", kBackends[b]}};
    TRIPRIV_ASSIGN_OR_RETURN(
        metrics.breaker_state_[b],
        registry->RegisterGauge("tripriv_breaker_state",
                                "Breaker state: 0 closed, 1 open, 2 half-open",
                                labels));
    TRIPRIV_ASSIGN_OR_RETURN(
        metrics.breaker_opens_[b],
        registry->RegisterGauge("tripriv_breaker_opens",
                                "Times this breaker has tripped open",
                                labels));
    TRIPRIV_ASSIGN_OR_RETURN(
        metrics.breaker_rejections_[b],
        registry->RegisterGauge("tripriv_breaker_rejections",
                                "Calls rejected while the breaker was open",
                                labels));
    TRIPRIV_ASSIGN_OR_RETURN(
        metrics.breaker_probes_[b],
        registry->RegisterGauge("tripriv_breaker_half_open_probes",
                                "Probe calls admitted while half-open",
                                labels));
  }
  TRIPRIV_ASSIGN_OR_RETURN(
      metrics.pir_bytes_xored_,
      registry->RegisterGauge("tripriv_pir_bytes_xored",
                              "Bytes XORed by PIR servers answering queries",
                              {{"dimension", "user"}}));
  TRIPRIV_ASSIGN_OR_RETURN(
      metrics.pir_failovers_,
      registry->RegisterGauge(
          "tripriv_pir_failover_replays",
          "PIR queries replayed on a fallback replica group",
          {{"dimension", "user"}}));
  TRIPRIV_ASSIGN_OR_RETURN(
      metrics.pir_corrupt_,
      registry->RegisterGauge("tripriv_pir_corrupt_answers",
                              "PIR answers rejected as corrupt",
                              {{"dimension", "user"}}));
  TRIPRIV_ASSIGN_OR_RETURN(
      metrics.pir_queries_,
      registry->RegisterGauge("tripriv_pir_queries_answered",
                              "PIR queries answered across replica groups",
                              {{"dimension", "user"}}));
  TRIPRIV_ASSIGN_OR_RETURN(
      metrics.pir_upload_bits_,
      registry->RegisterGauge("tripriv_pir_upload_bits",
                              "Query bits shipped to recursive PIR replicas",
                              {{"dimension", "user"}}));
  TRIPRIV_ASSIGN_OR_RETURN(
      metrics.pir_expanded_cells_,
      registry->RegisterGauge(
          "tripriv_pir_expanded_cells",
          "Hypercube cells expanded server-side from seeds and axis bitmaps",
          {{"dimension", "user"}}));
  TRIPRIV_ASSIGN_OR_RETURN(
      metrics.pir_preprocess_bytes_,
      registry->RegisterGauge(
          "tripriv_pir_preprocess_bytes",
          "Bytes pinned by preprocessed dense PIR record layouts",
          {{"dimension", "user"}}));
  TRIPRIV_ASSIGN_OR_RETURN(
      metrics.pir_sessions_,
      registry->RegisterGauge(
          "tripriv_pir_sessions",
          "Live recursive-PIR expansion sessions across tenant classes",
          {{"dimension", "user"}}));
  return metrics;
}

Result<EpochMetrics> EpochMetrics::Create(MetricsRegistry* registry) {
  if (registry == nullptr) {
    return Status::InvalidArgument("EpochMetrics requires a registry");
  }
  EpochMetrics metrics;

  // Mutation kinds ride the existing `method` label key; flip outcomes ride
  // `result`. Both value sets are constants admitted here, never rendered
  // from data.
  static const char* kMutationValues[3] = {"insert", "delete", "update"};
  for (int m = 0; m < 3; ++m) {
    Status allowed = registry->AllowLabelValue("method", kMutationValues[m]);
    if (!allowed.ok() && allowed.code() != StatusCode::kAlreadyExists) {
      return allowed;
    }
    TRIPRIV_ASSIGN_OR_RETURN(
        metrics.mutation_counters_[m],
        registry->RegisterCounter("tripriv_epoch_mutations_total",
                                  "Mutations admitted to the pending buffer",
                                  {{"method", kMutationValues[m]}}));
  }
  TRIPRIV_ASSIGN_OR_RETURN(
      metrics.mutations_shed_,
      registry->RegisterCounter("tripriv_epoch_mutations_shed_total",
                                "Mutations shed by write admission control"));
  static const char* kFlipResults[3] = {"committed", "refused_privacy",
                                        "refused_io"};
  Counter** flip_counters[3] = {&metrics.flips_committed_,
                                &metrics.flips_refused_privacy_,
                                &metrics.flips_refused_io_};
  for (int r = 0; r < 3; ++r) {
    Status allowed = registry->AllowLabelValue("result", kFlipResults[r]);
    if (!allowed.ok() && allowed.code() != StatusCode::kAlreadyExists) {
      return allowed;
    }
    TRIPRIV_ASSIGN_OR_RETURN(
        *flip_counters[r],
        registry->RegisterCounter("tripriv_epoch_flips_total",
                                  "Epoch flips by outcome",
                                  {{"result", kFlipResults[r]}}));
  }
  TRIPRIV_ASSIGN_OR_RETURN(
      metrics.rows_reclustered_,
      registry->RegisterCounter(
          "tripriv_epoch_rows_reclustered_total",
          "Rows that went through the dirty-group recluster pool"));
  TRIPRIV_ASSIGN_OR_RETURN(
      metrics.flip_latency_ticks_,
      registry->RegisterHistogram(
          "tripriv_epoch_flip_latency_ticks",
          "Modeled flip latency (sim ticks: base + per reclustered row)",
          {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384}));
  TRIPRIV_ASSIGN_OR_RETURN(
      metrics.current_epoch_,
      registry->RegisterGauge("tripriv_epoch_current",
                              "Epoch currently serving reads"));
  TRIPRIV_ASSIGN_OR_RETURN(
      metrics.live_epochs_,
      registry->RegisterGauge("tripriv_epoch_live",
                              "Live epochs (current + pinned retirees)"));
  TRIPRIV_ASSIGN_OR_RETURN(
      metrics.peak_live_epochs_,
      registry->RegisterGauge("tripriv_epoch_live_peak",
                              "High-water mark of live epochs"));
  TRIPRIV_ASSIGN_OR_RETURN(
      metrics.pending_mutations_,
      registry->RegisterGauge("tripriv_epoch_pending_mutations",
                              "Mutations waiting for the next flip"));
  TRIPRIV_ASSIGN_OR_RETURN(
      metrics.store_images_,
      registry->RegisterGauge("tripriv_epoch_store_images",
                              "Epoch images held by the durable store"));
  return metrics;
}

Result<TrafficMetrics> TrafficMetrics::Create(MetricsRegistry* registry) {
  if (registry == nullptr) {
    return Status::InvalidArgument("TrafficMetrics requires a registry");
  }
  TrafficMetrics metrics;
  static const char* kTierValues[3] = {"protected", "dp_degraded", "refused"};
  // Latency bounds in sim ticks: powers of two out to 2^16, so the SLO
  // reader resolves p50/p99 to within a factor of two across four decades.
  const std::vector<uint64_t> kLatencyBounds = {
      1,   2,    4,    8,    16,   32,    64,    128,  256,
      512, 1024, 2048, 4096, 8192, 16384, 32768, 65536};
  for (uint8_t c = 0; c < kNumTenantClasses; ++c) {
    const LabelSet cls_label = {{"class", TenantClassLabel(c)}};
    TRIPRIV_ASSIGN_OR_RETURN(
        metrics.arrivals_[c],
        registry->RegisterCounter("tripriv_traffic_arrivals_total",
                                  "Requests generated by the traffic profile,"
                                  " by tenant class",
                                  cls_label));
    for (uint8_t r = 0; r < kNumShedReasons; ++r) {
      TRIPRIV_ASSIGN_OR_RETURN(
          metrics.shed_[c][r],
          registry->RegisterCounter(
              "tripriv_traffic_shed_total",
              "Requests refused by the fair-queueing scheduler",
              {{"class", TenantClassLabel(c)}, {"reason", kShedReasonNames[r]}}));
    }
    for (uint8_t t = 0; t < 3; ++t) {
      TRIPRIV_ASSIGN_OR_RETURN(
          metrics.answers_[c][t],
          registry->RegisterCounter(
              "tripriv_traffic_answers_total",
              "Scheduler-dispatched answers by class and degradation tier",
              {{"class", TenantClassLabel(c)}, {"tier", kTierValues[t]}}));
    }
    TRIPRIV_ASSIGN_OR_RETURN(
        metrics.latency_[c],
        registry->RegisterHistogram(
            "tripriv_traffic_latency_ticks",
            "Queue-to-completion latency in sim ticks, by tenant class",
            kLatencyBounds, cls_label));
    TRIPRIV_ASSIGN_OR_RETURN(
        metrics.backlog_[c],
        registry->RegisterGauge("tripriv_traffic_backlog",
                                "Queued requests at publish, by tenant class",
                                cls_label));
  }
  return metrics;
}

Result<AttackMetrics> AttackMetrics::Create(MetricsRegistry* registry) {
  if (registry == nullptr) {
    return Status::InvalidArgument("AttackMetrics requires a registry");
  }
  static const char* const kDimValues[kNumDimensions] = {"respondent", "owner",
                                                         "user"};
  AttackMetrics metrics;
  for (uint8_t d = 0; d < kNumDimensions; ++d) {
    const LabelSet dim_label = {{"dimension", kDimValues[d]}};
    TRIPRIV_ASSIGN_OR_RETURN(
        metrics.outcomes_[d],
        registry->RegisterCounter("tripriv_attack_outcomes_total",
                                  "Attack outcomes recorded, by privacy "
                                  "dimension",
                                  dim_label));
    TRIPRIV_ASSIGN_OR_RETURN(
        metrics.success_rate_[d],
        registry->RegisterGauge("tripriv_attack_success_rate",
                                "Most recent attack success rate, by privacy "
                                "dimension",
                                dim_label));
    TRIPRIV_ASSIGN_OR_RETURN(
        metrics.equivocation_bits_[d],
        registry->RegisterGauge("tripriv_attack_equivocation_bits",
                                "Most recent attacker residual uncertainty in "
                                "bits, by privacy dimension",
                                dim_label));
  }
  return metrics;
}

}  // namespace obs
}  // namespace tripriv
