// Fault-tolerant front-end over the protected statistical database and the
// private-aggregation (PIR) path.
//
// QueryService composes the robustness primitives of this directory into
// one serving ladder with a single invariant: **fail closed**. Whatever
// breaks — a backend fault, an I/O fault in the audit log, load, a crash
// mid-request — every outcome is one of
//
//     exact protected answer  >  epsilon-DP degraded answer  >  typed refusal
//
// and never an unprotected exact answer, and never an answer the healthy
// policy would have refused.
//
// Request path (Submit):
//   1. policy stage — the query set is computed and the AuditPolicy
//      consulted FIRST, before admission control or deadline checks, and
//      the decision is recorded in the in-memory audit state and the
//      crash-recoverable AuditWal. Running the policy unconditionally makes
//      the audit-state evolution a deterministic function of the query
//      sequence alone, identical in healthy and faulty runs — faults can
//      only turn answers into refusals, never refusals into answers;
//   2. admission control — a full virtual queue sheds the request with
//      kResourceExhausted before any backend work;
//   3. primary path — exact evaluation under the request Deadline (cost
//      charged to the SimClock), run through RunRetryLadder (util/retry.h):
//      every attempt is gated by a per-backend CircuitBreaker and retried
//      under the RetryPolicy until the deadline expires;
//   4. degraded path — on a transient primary failure the service answers
//      from an epsilon-DP Laplace backend instead (the one protection in
//      this codebase that needs no query inspection), charging a durable
//      epsilon budget: the spend is WAL-logged before the answer is
//      released, and a budget overrun refuses;
//   5. typed refusal otherwise.
//
// Answers are acknowledged only after their WAL records are durable
// (ack-after-commit), so a restart via Create() on the surviving log
// recovers an audit state that covers every answer any client ever saw —
// the monotone-recovery property the chaos suite asserts.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/instruments.h"
#include "pir/aggregate.h"
#include "querydb/protection.h"
#include "service/admission.h"
#include "service/audit_wal.h"
#include "service/pir_failover.h"
#include "util/circuit_breaker.h"
#include "util/clock.h"
#include "util/retry.h"

namespace tripriv {

/// Seed-deterministic adversity injected into the serving path. WAL-level
/// faults are composed separately by wrapping the WalIo in a FaultyWalIo.
struct ServiceFaultPlan {
  /// P(one primary-backend attempt fails with kUnavailable).
  double backend_fault_rate = 0.0;
  /// P(the service crashes after committing a decision but before releasing
  /// the answer) — the window where fail-closed matters most.
  double crash_mid_answer_rate = 0.0;
  /// P(one degraded-path (DP) attempt fails with kUnavailable).
  double dp_fault_rate = 0.0;
  /// P(one aggregate-PIR replica attempt fails with kUnavailable).
  double aggregate_fault_rate = 0.0;
  /// Seed of the fault RNG.
  uint64_t seed = 0xC0FFEE;
};

/// Where in the degradation ladder an answer came from.
enum class AnswerTier : uint8_t {
  kProtected,   ///< exact answer under the configured protection mode
  kDpDegraded,  ///< epsilon-DP Laplace answer from the degraded path
  kRefused,     ///< typed refusal; `refusal` says why
};

const char* AnswerTierToString(AnswerTier tier);

/// Outcome of one Submit call.
struct ServiceAnswer {
  AnswerTier tier = AnswerTier::kRefused;
  /// Valid for kProtected / kDpDegraded.
  ProtectedAnswer answer;
  /// Valid for kRefused: a non-OK transient or permanent status.
  Status refusal;
  /// Service-assigned position of the query (matches its WAL records).
  uint64_t query_id = 0;
};

/// The side-effect-free prefix of the serving ladder, computed by Prepare().
/// Batch executors run Prepare for many queries in parallel (it touches no
/// mutable service state), then feed the results through SubmitPrepared
/// serially in submission order so the audit/WAL evolution is identical to
/// a serial Submit loop.
struct PreparedQuery {
  /// The query set, or the malformed-query error Submit would refuse with.
  Result<std::vector<size_t>> rows = Status::Internal("query not prepared");
  /// FNV of the query's canonical rendering (what the WAL stores).
  uint64_t fingerprint = 0;
};

/// Service configuration.
struct QueryServiceConfig {
  /// Protection mode of the primary path; kQuerySetSize / kAudit policy
  /// checks are lifted into the service so they can run against
  /// WAL-recovered audit state.
  ProtectionConfig protection;
  /// Epsilon of ONE degraded answer.
  double degrade_epsilon = 0.5;
  /// Total epsilon the degraded path may spend over the service lifetime
  /// (durable across restarts via the WAL). One pool: the aggregate-PIR
  /// DP count draws on it too.
  double epsilon_budget = 8.0;
  AdmissionConfig admission;
  CircuitBreakerConfig breaker;
  RetryPolicy retry;
  /// Deadline for Submit calls that do not bring their own.
  uint64_t default_deadline_ticks = 64;
  ServiceFaultPlan faults;
  uint64_t seed = 7;
};

/// Serving statistics (observability for tests and the bench harness).
struct ServiceStats {
  uint64_t received = 0;
  uint64_t protected_answers = 0;
  uint64_t dp_answers = 0;
  uint64_t refusals = 0;
  /// Refusals decided by the protection policy itself (healthy behaviour).
  uint64_t policy_refusals = 0;
  /// Requests shed by admission control.
  uint64_t shed = 0;
  /// Primary-path failures that entered the degraded path.
  uint64_t degraded_attempts = 0;
  /// WAL appends that failed (each one forced a refusal).
  uint64_t wal_append_failures = 0;
};

/// Fault-tolerant query service; see file comment.
class QueryService {
 public:
  /// Builds a service over `data`, recovering audit state and epsilon
  /// spend from `wal_io` (which may hold a torn log from a crashed
  /// predecessor). `wal_io` must outlive the service.
  static Result<QueryService> Create(DataTable data, QueryServiceConfig config,
                                     WalIo* wal_io);

  QueryService(QueryService&&) = default;
  QueryService& operator=(QueryService&&) = default;

  /// Runs one query through the serving ladder with the default deadline.
  ServiceAnswer Submit(const StatQuery& query);
  /// Same with an explicit deadline.
  ServiceAnswer Submit(const StatQuery& query, const Deadline& deadline);

  /// The pure, thread-safe prefix of Submit: evaluates the query predicate
  /// against the backend table and fingerprints the query. Touches no
  /// mutable service state, so a BatchExecutor may run it concurrently for
  /// many queries.
  PreparedQuery Prepare(const StatQuery& query) const;

  /// The stateful remainder of Submit, consuming a Prepare() result. NOT
  /// thread-safe; callers serialize invocations in submission order, which
  /// keeps the audit-state and WAL evolution identical to a serial Submit
  /// loop. Submit(query, deadline) == SubmitPrepared(query, Prepare(query),
  /// deadline).
  ServiceAnswer SubmitPrepared(const StatQuery& query, PreparedQuery prepared,
                               const Deadline& deadline);
  /// Same with the default deadline.
  ServiceAnswer SubmitPrepared(const StatQuery& query, PreparedQuery prepared);

  /// Attaches the private-aggregation path: replicated grid servers, the
  /// Paillier client, and the server-side noise RNG. All pointers must
  /// outlive the service; replicas must be built over the same grid.
  void AttachAggregateBackends(std::vector<const PrivateAggregateServer*> replicas,
                               PrivateAggregateClient* client,
                               Rng* server_noise_rng);

  /// epsilon-DP private COUNT(*) WHERE `predicate` over the aggregate-PIR
  /// path, failing over across replicas under the retry policy and
  /// `deadline`. Charges `degrade_epsilon` to the durable budget (WAL
  /// ack-after-commit, like the degraded path).
  Result<int64_t> PrivateDpCount(const Predicate& predicate,
                                 const Deadline& deadline);

  /// Attaches a record-retrieval PIR backend (must outlive the service).
  void AttachPirBackend(FailoverPirClient* pir);

  /// Attaches an observability bundle (must outlive the service; null
  /// detaches). From then on the serving ladder pushes counters, batch
  /// histograms, and — when the bundle carries a TraceRecorder — spans for
  /// each ladder stage, and the epsilon pool (epsilon_budget and the
  /// WAL-recovered spend) is mirrored into the bundle's budget accountant
  /// as the obs::kEpsilonPrincipal principal. Purely additive: instruments
  /// never touch the request clock or change any serving decision.
  void AttachInstruments(obs::ServiceMetrics* metrics);

  /// Copies the sampled component counters (queue depth, breaker states,
  /// PIR failover totals) into the attached bundle's gauges. No-op when no
  /// bundle is attached. Call from the serial driver, never mid-batch.
  void PublishMetrics();

  /// The attached bundle (null when none) — lets batch executors push
  /// batch-shape histograms alongside the service's own counters.
  obs::ServiceMetrics* instruments() const { return metrics_; }

  /// Tags the NEXT SubmitPrepared call with a tenant class
  /// (obs::kClassInteractive ...), so shed events carry an allowlisted,
  /// non-sensitive class label instead of landing in "unattributed". The
  /// tag covers exactly one request: SubmitPrepared resets it so an
  /// untagged caller can never inherit the previous tenant's class.
  /// Principal ids never enter this seam — callers map principal→class
  /// before the service sees the request.
  void set_request_class(uint8_t cls) { request_class_ = cls; }
  uint8_t request_class() const { return request_class_; }

  /// Privately reads record `index` through the attached failover client.
  Result<std::vector<uint8_t>> PirRead(size_t index, const Deadline& deadline);

  /// Batched private reads through the attached failover client, sharding
  /// each replica's XOR sweep across `pool` (see FailoverPirClient::ReadBatch
  /// for the determinism contract). Results are positional.
  std::vector<Result<std::vector<uint8_t>>> PirReadBatch(
      const std::vector<size_t>& indices, const Deadline& deadline,
      ThreadPool* pool = nullptr);

  const ServiceStats& stats() const { return stats_; }
  const AuditPolicy& audit_policy() const { return policy_; }
  double epsilon_spent() const { return epsilon_spent_; }
  /// True after a simulated crash; every later Submit refuses. Restart by
  /// calling Create() again on the (crashed) WalIo.
  bool crashed() const { return crashed_; }
  SimClock* sim_clock() { return clock_.get(); }
  const AuditWal& wal() const { return wal_; }
  const CircuitBreaker& primary_breaker() const { return *primary_breaker_; }
  const CircuitBreaker& dp_breaker() const { return *dp_breaker_; }
  const AdmissionController& admission() const { return *admission_; }
  uint64_t next_query_id() const { return next_query_id_; }

 private:
  QueryService(DataTable data, QueryServiceConfig config, WalIo* wal_io);

  ServiceAnswer Refuse(uint64_t query_id, Status why);
  /// Span names the ladder emits, resolved to interned TraceRecorder ids
  /// once at AttachInstruments so the per-query path never compares
  /// strings. All zero (= rejected) until instruments are attached.
  struct SpanIds {
    uint32_t submit = 0;
    uint32_t policy = 0;
    uint32_t wal_append = 0;
    uint32_t admission = 0;
    uint32_t primary = 0;
    uint32_t degraded = 0;
    uint32_t epsilon_charge = 0;
    uint32_t aggregate_count = 0;
    uint32_t pir_read = 0;
    uint32_t pir_batch = 0;
  };
  /// Starts a trace span when a TraceRecorder is attached (0 otherwise).
  uint64_t BeginSpan(uint32_t name_id, uint64_t parent, uint64_t query_id);
  /// Ends `span` (no-op for span 0 / no recorder).
  void FinishSpan(uint64_t span, StatusCode code);
  /// The ladder body; `submit_span` parents the per-stage spans.
  ServiceAnswer SubmitPreparedImpl(const StatQuery& query,
                                   PreparedQuery prepared,
                                   const Deadline& deadline,
                                   uint64_t submit_span);
  /// The primary (exact, protected) path: breaker + retries + deadline.
  Result<ProtectedAnswer> TryPrimary(const StatQuery& query,
                                     const Deadline& deadline);
  /// The degraded (epsilon-DP) path: breaker + budget + WAL spend record.
  ServiceAnswer TryDegraded(const StatQuery& query, uint64_t query_id);
  /// Charges epsilon to the durable budget; OK only once the spend record
  /// is durable.
  Status ChargeEpsilon(uint64_t query_id, uint64_t fingerprint);

  QueryServiceConfig config_;
  std::unique_ptr<SimClock> clock_;
  AuditWal wal_;
  /// Size/overlap policy over WAL-recovered state; the service's source of
  /// truth (the backends below run with the policy modes stripped).
  AuditPolicy policy_;
  /// Primary backend: the configured mode minus the lifted policy checks.
  StatDatabase backend_;
  /// Degraded backend: epsilon-DP Laplace at degrade_epsilon per answer.
  StatDatabase dp_db_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<CircuitBreaker> primary_breaker_;
  std::unique_ptr<CircuitBreaker> dp_breaker_;
  Rng fault_rng_;
  ServiceStats stats_;
  double epsilon_spent_ = 0.0;
  uint64_t next_query_id_ = 0;
  bool crashed_ = false;
  /// Tenant class of the in-flight request (see set_request_class).
  uint8_t request_class_ = obs::kClassUnattributed;

  // Optional attached paths.
  std::vector<const PrivateAggregateServer*> aggregate_replicas_;
  PrivateAggregateClient* aggregate_client_ = nullptr;
  Rng* aggregate_server_rng_ = nullptr;
  FailoverPirClient* pir_ = nullptr;
  obs::ServiceMetrics* metrics_ = nullptr;
  SpanIds span_ids_;
};

}  // namespace tripriv
