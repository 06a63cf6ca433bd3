#include "service/query_service.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "util/checksum.h"

namespace tripriv {
namespace {

/// FNV of the query's canonical rendering — what the WAL stores in place of
/// the query text.
uint64_t QueryFingerprint(const StatQuery& query) {
  const std::string canonical = query.ToString();
  return Fnv1a64(canonical.data(), canonical.size());
}

/// The primary backend runs the configured mode minus the policy checks the
/// service lifts into its own (WAL-recovered) AuditPolicy.
ProtectionConfig PrimaryConfig(const ProtectionConfig& protection) {
  ProtectionConfig out = protection;
  if (out.mode == ProtectionMode::kQuerySetSize ||
      out.mode == ProtectionMode::kAudit) {
    out.mode = ProtectionMode::kNone;
  }
  return out;
}

/// The degraded backend: epsilon-DP Laplace at degrade_epsilon per answer —
/// the one protection here that needs no query inspection, so it stays
/// sound even when the audit path is the thing that is failing.
ProtectionConfig DegradedConfig(const QueryServiceConfig& config) {
  ProtectionConfig out;
  out.mode = ProtectionMode::kDifferentialPrivacy;
  out.epsilon = config.degrade_epsilon;
  out.seed = config.seed ^ 0x9E3779B97F4A7C15ULL;
  return out;
}

CircuitBreakerConfig WithSeed(CircuitBreakerConfig config, uint64_t seed) {
  config.seed = seed;
  return config;
}

constexpr double kEpsilonSlack = 1e-12;

}  // namespace

const char* AnswerTierToString(AnswerTier tier) {
  switch (tier) {
    case AnswerTier::kProtected:
      return "protected";
    case AnswerTier::kDpDegraded:
      return "dp-degraded";
    case AnswerTier::kRefused:
      return "refused";
  }
  return "?";
}

QueryService::QueryService(DataTable data, QueryServiceConfig config,
                           WalIo* wal_io)
    : config_(std::move(config)),
      clock_(std::make_unique<SimClock>()),
      wal_(wal_io),
      policy_(config_.protection.mode, config_.protection.min_query_set_size,
              data.num_rows()),
      backend_(data, PrimaryConfig(config_.protection)),
      dp_db_(std::move(data), DegradedConfig(config_)),
      admission_(
          std::make_unique<AdmissionController>(config_.admission, clock_.get())),
      primary_breaker_(std::make_unique<CircuitBreaker>(
          WithSeed(config_.breaker, config_.breaker.seed), clock_.get())),
      dp_breaker_(std::make_unique<CircuitBreaker>(
          WithSeed(config_.breaker, config_.breaker.seed ^ 0xD15EA5Eull),
          clock_.get())),
      fault_rng_(config_.faults.seed) {}

Result<QueryService> QueryService::Create(DataTable data,
                                          QueryServiceConfig config,
                                          WalIo* wal_io) {
  TRIPRIV_CHECK(wal_io != nullptr);
  if (config.degrade_epsilon <= 0.0) {
    return Status::InvalidArgument("degrade_epsilon must be > 0");
  }
  if (config.epsilon_budget < 0.0) {
    return Status::InvalidArgument("epsilon_budget must be >= 0");
  }
  // Recover BEFORE constructing the appender: Recover truncates the torn
  // tail, and AuditWal resumes appending at the repaired device size.
  TRIPRIV_ASSIGN_OR_RETURN(WalRecoveryResult recovered,
                           AuditWal::Recover(wal_io));
  QueryService service(std::move(data), std::move(config), wal_io);
  for (const WalRecord& record : recovered.records) {
    if (record.query_id >= service.next_query_id_) {
      service.next_query_id_ = record.query_id + 1;
    }
    switch (record.type) {
      case WalRecordType::kDecision:
        if (record.decision == WalDecision::kAdmitted) {
          std::vector<size_t> rows(record.rows.begin(), record.rows.end());
          service.policy_.RecordAnswered(std::move(rows));
        }
        break;
      case WalRecordType::kEpsilonSpend:
        service.epsilon_spent_ += record.epsilon;
        break;
      case WalRecordType::kEpochFlipBegin:
      case WalRecordType::kEpochFlipCommit:
      case WalRecordType::kEpochFlipAbort:
        // Epoch flips belong to the mutation subsystem; a shared device
        // replays them through EpochedDatabase::Create, not here.
        break;
    }
  }
  return service;
}

ServiceAnswer QueryService::Refuse(uint64_t query_id, Status why) {
  TRIPRIV_CHECK(!why.ok());
  ++stats_.refusals;
  if (metrics_ != nullptr) metrics_->OnAnswer(obs::kTierRefused);
  ServiceAnswer out;
  out.tier = AnswerTier::kRefused;
  out.refusal = std::move(why);
  out.query_id = query_id;
  return out;
}

ServiceAnswer QueryService::Submit(const StatQuery& query) {
  return Submit(query,
                Deadline::After(*clock_, config_.default_deadline_ticks));
}

ServiceAnswer QueryService::Submit(const StatQuery& query,
                                   const Deadline& deadline) {
  return SubmitPrepared(query, Prepare(query), deadline);
}

PreparedQuery QueryService::Prepare(const StatQuery& query) const {
  PreparedQuery prepared;
  prepared.rows = query.where.MatchingRows(backend_.data());
  prepared.fingerprint = QueryFingerprint(query);
  return prepared;
}

ServiceAnswer QueryService::SubmitPrepared(const StatQuery& query,
                                           PreparedQuery prepared) {
  return SubmitPrepared(query, std::move(prepared),
                        Deadline::After(*clock_, config_.default_deadline_ticks));
}

ServiceAnswer QueryService::SubmitPrepared(const StatQuery& query,
                                           PreparedQuery prepared,
                                           const Deadline& deadline) {
  const uint64_t submit_span = BeginSpan(span_ids_.submit, 0, next_query_id_);
  ServiceAnswer out =
      SubmitPreparedImpl(query, std::move(prepared), deadline, submit_span);
  // A class tag covers exactly one request; reset so an untagged caller
  // never inherits the previous tenant's class.
  request_class_ = obs::kClassUnattributed;
  FinishSpan(submit_span, out.tier == AnswerTier::kRefused
                              ? out.refusal.code()
                              : StatusCode::kOk);
  return out;
}

ServiceAnswer QueryService::SubmitPreparedImpl(const StatQuery& query,
                                               PreparedQuery prepared,
                                               const Deadline& deadline,
                                               uint64_t submit_span) {
  ++stats_.received;
  const uint64_t query_id = next_query_id_++;
  if (crashed_) {
    return Refuse(query_id, Status::Unavailable(
                                "service crashed; recover via Create()"));
  }

  // --- Policy stage: runs for EVERY query, before admission control and
  // deadline checks, so the audit state evolves as a deterministic function
  // of the query sequence alone. A fault further down can only withhold
  // this query's answer; it can never un-record the decision and let a
  // later overlapping query through.
  if (!prepared.rows.ok()) {
    // Malformed query: no query set exists, so no audit decision to log.
    return Refuse(query_id, prepared.rows.status());
  }
  std::vector<size_t> rows = std::move(prepared.rows).value();
  const uint64_t fingerprint = prepared.fingerprint;
  const uint64_t policy_span = BeginSpan(span_ids_.policy, submit_span, query_id);
  const std::optional<std::string> refusal_reason = policy_.Check(rows);
  FinishSpan(policy_span, refusal_reason ? StatusCode::kPermissionDenied
                                         : StatusCode::kOk);

  WalRecord decision;
  decision.type = WalRecordType::kDecision;
  decision.query_id = query_id;
  decision.query_fingerprint = fingerprint;
  decision.decision = refusal_reason ? WalDecision::kPolicyRefused
                                     : WalDecision::kAdmitted;
  if (!refusal_reason) decision.rows.assign(rows.begin(), rows.end());
  const uint64_t wal_span = BeginSpan(span_ids_.wal_append, submit_span, query_id);
  Status logged = wal_.Append(decision);
  FinishSpan(wal_span, logged.code());
  if (!logged.ok()) ++stats_.wal_append_failures;
  if (metrics_ != nullptr) {
    metrics_->OnWalAppend(logged.ok() ? wal_.last_append_bytes() : 0,
                          logged.ok());
  }
  if (!refusal_reason) {
    // In-memory audit state records the admission even when the WAL write
    // failed: the overlap check must see this set for the rest of this
    // process lifetime regardless, and the un-logged answer is simply never
    // released (below). Fail closed, both in memory and on disk.
    policy_.RecordAnswered(std::move(rows));
  }
  if (refusal_reason) {
    ++stats_.policy_refusals;
    if (metrics_ != nullptr) metrics_->OnPolicyRefusal();
    return Refuse(query_id, Status::PermissionDenied(*refusal_reason));
  }
  if (!logged.ok()) {
    return Refuse(query_id,
                  Status::Unavailable("audit trail not durable: " +
                                      logged.message()));
  }

  // --- Admission control: shed before any backend work.
  const uint64_t admission_span =
      BeginSpan(span_ids_.admission, submit_span, query_id);
  Status admitted = admission_->Admit();
  FinishSpan(admission_span, admitted.code());
  if (!admitted.ok()) {
    ++stats_.shed;
    // Attributed to the caller-declared tenant class — an allowlisted
    // label, never a principal id (unattributed when no class was set).
    if (metrics_ != nullptr) metrics_->OnShed(request_class_);
    return Refuse(query_id, std::move(admitted));
  }

  if (deadline.expired(*clock_)) {
    return Refuse(query_id,
                  DeadlineExceededError("request deadline at admission"));
  }

  // --- Primary path: exact answer under the configured protection.
  const uint64_t primary_span = BeginSpan(span_ids_.primary, submit_span, query_id);
  auto primary = TryPrimary(query, deadline);
  FinishSpan(primary_span, primary.status().code());
  if (primary.ok()) {
    if (primary->refused) {
      // A semantic refusal from the primary mode (e.g. MIN/MAX when the
      // configured mode is differential privacy).
      ++stats_.policy_refusals;
      if (metrics_ != nullptr) metrics_->OnPolicyRefusal();
      // Refusal reasons are policy-generated text, not record data.
      return Refuse(query_id,
                    // NOLINTNEXTLINE(taint-flow-to-sink)
                    Status::PermissionDenied(primary->refusal_reason));
    }
    if (fault_rng_.Bernoulli(config_.faults.crash_mid_answer_rate)) {
      // The decision record is durable but the client never hears back —
      // exactly the window monotone recovery is about.
      crashed_ = true;
      if (metrics_ != nullptr) metrics_->OnCrash();
      return Refuse(query_id, Status::Unavailable(
                                  "service crashed before releasing the answer"));
    }
    ++stats_.protected_answers;
    if (metrics_ != nullptr) metrics_->OnAnswer(obs::kTierProtected);
    ServiceAnswer out;
    out.tier = AnswerTier::kProtected;
    out.answer = std::move(primary).value();
    out.query_id = query_id;
    return out;
  }

  // --- Degradation ladder. Only an unavailable primary degrades; an
  // exceeded deadline refuses (the time budget is the client's, and more
  // work cannot un-spend it), and permanent failures refuse typed.
  if (primary.status().code() == StatusCode::kUnavailable) {
    ++stats_.degraded_attempts;
    const uint64_t degraded_span =
        BeginSpan(span_ids_.degraded, submit_span, query_id);
    ServiceAnswer degraded = TryDegraded(query, query_id);
    FinishSpan(degraded_span, degraded.tier == AnswerTier::kRefused
                                  ? degraded.refusal.code()
                                  : StatusCode::kOk);
    return degraded;
  }
  return Refuse(query_id, primary.status());
}

Result<ProtectedAnswer> QueryService::TryPrimary(const StatQuery& query,
                                                 const Deadline& deadline) {
  // The breaker gates EVERY attempt, not just the first: a burst arriving in
  // the half-open window cannot ride a single probe permission for its whole
  // retry budget, and once the breaker refuses the ladder degrades at once.
  return RunRetryLadder<ProtectedAnswer>(
      config_.retry, deadline, clock_.get(), primary_breaker_.get(),
      "primary path",
      [this, &query, &deadline](size_t) -> Result<ProtectedAnswer> {
        if (fault_rng_.Bernoulli(config_.faults.backend_fault_rate)) {
          return Status::Unavailable("injected primary backend fault");
        }
        // Deadline-aware evaluation charges the scan cost to the clock and
        // fails typed when the budget runs out mid-scan.
        auto evaluated =
            ExecuteQuery(backend_.data(), query, clock_.get(), deadline);
        if (!evaluated.ok()) return evaluated.status();
        return backend_.Query(query);
      });
}

Status QueryService::ChargeEpsilon(uint64_t query_id, uint64_t fingerprint) {
  // Charge memory FIRST: if the durable record then fails, the budget is
  // conservatively spent and the answer withheld — never the reverse.
  epsilon_spent_ += config_.degrade_epsilon;
  WalRecord spend;
  spend.type = WalRecordType::kEpsilonSpend;
  spend.query_id = query_id;
  spend.query_fingerprint = fingerprint;
  spend.decision = WalDecision::kAdmitted;
  spend.epsilon = config_.degrade_epsilon;
  const uint64_t span = BeginSpan(span_ids_.epsilon_charge, 0, query_id);
  Status logged = wal_.Append(spend);
  FinishSpan(span, logged.code());
  if (metrics_ != nullptr) {
    metrics_->OnWalAppend(logged.ok() ? wal_.last_append_bytes() : 0,
                          logged.ok());
  }
  if (!logged.ok()) {
    ++stats_.wal_append_failures;
    return Status::Unavailable("epsilon spend not durable: " +
                               logged.message());
  }
  // Mirror only DURABLE spends: the accountant is a read model of the WAL.
  if (metrics_ != nullptr) {
    metrics_->OnEpsilonSpend(config_.degrade_epsilon);
  }
  return Status::OK();
}

ServiceAnswer QueryService::TryDegraded(const StatQuery& query,
                                        uint64_t query_id) {
  if (!dp_breaker_->AllowRequest()) {
    return Refuse(query_id,
                  Status::Unavailable("degraded-path circuit breaker is open"));
  }
  if (fault_rng_.Bernoulli(config_.faults.dp_fault_rate)) {
    dp_breaker_->RecordFailure();
    return Refuse(query_id,
                  Status::Unavailable("injected degraded-path fault"));
  }
  if (epsilon_spent_ + config_.degrade_epsilon >
      config_.epsilon_budget + kEpsilonSlack) {
    dp_breaker_->RecordSuccess();
    return Refuse(query_id, Status::PermissionDenied(
                                "degraded-path privacy budget exhausted"));
  }
  auto answer = dp_db_.Query(query);
  dp_breaker_->RecordSuccess();
  if (!answer.ok()) return Refuse(query_id, answer.status());
  if (answer->refused) {
    // NOLINTNEXTLINE(taint-flow-to-sink): policy-generated text
    return Refuse(query_id, Status::PermissionDenied(answer->refusal_reason));
  }
  Status charged = ChargeEpsilon(query_id, QueryFingerprint(query));
  if (!charged.ok()) return Refuse(query_id, std::move(charged));
  if (fault_rng_.Bernoulli(config_.faults.crash_mid_answer_rate)) {
    crashed_ = true;
    if (metrics_ != nullptr) metrics_->OnCrash();
    return Refuse(query_id, Status::Unavailable(
                                "service crashed before releasing the answer"));
  }
  ++stats_.dp_answers;
  if (metrics_ != nullptr) metrics_->OnAnswer(obs::kTierDpDegraded);
  ServiceAnswer out;
  out.tier = AnswerTier::kDpDegraded;
  out.answer = std::move(answer).value();
  out.query_id = query_id;
  return out;
}

void QueryService::AttachAggregateBackends(
    std::vector<const PrivateAggregateServer*> replicas,
    PrivateAggregateClient* client, Rng* server_noise_rng) {
  for (const auto* replica : replicas) TRIPRIV_CHECK(replica != nullptr);
  TRIPRIV_CHECK(client != nullptr);
  TRIPRIV_CHECK(server_noise_rng != nullptr);
  aggregate_replicas_ = std::move(replicas);
  aggregate_client_ = client;
  aggregate_server_rng_ = server_noise_rng;
}

Result<int64_t> QueryService::PrivateDpCount(const Predicate& predicate,
                                             const Deadline& deadline) {
  if (crashed_) {
    return Status::Unavailable("service crashed; recover via Create()");
  }
  if (aggregate_replicas_.empty() || aggregate_client_ == nullptr) {
    return Status::FailedPrecondition("no aggregate backends attached");
  }
  const uint64_t query_id = next_query_id_++;
  if (epsilon_spent_ + config_.degrade_epsilon >
      config_.epsilon_budget + kEpsilonSlack) {
    return Status::PermissionDenied("privacy budget exhausted");
  }
  const uint64_t span = BeginSpan(span_ids_.aggregate_count, 0, query_id);
  // Replica failover: each attempt goes to the next replica.
  auto count = RunRetryLadder<int64_t>(
      config_.retry, deadline, clock_.get(), /*breaker=*/nullptr,
      "private aggregate count",
      [this, &predicate](size_t attempt) -> Result<int64_t> {
        const auto* replica =
            aggregate_replicas_[attempt % aggregate_replicas_.size()];
        if (fault_rng_.Bernoulli(config_.faults.aggregate_fault_rate)) {
          return Status::Unavailable("injected aggregate replica fault");
        }
        clock_->Advance(1);  // one round trip of ciphertexts
        return aggregate_client_->DpCount(*replica, predicate,
                                          config_.degrade_epsilon,
                                          aggregate_server_rng_);
      });
  Status outcome = count.status();
  if (outcome.ok()) {
    const std::string canonical = predicate.ToString();
    outcome =
        ChargeEpsilon(query_id, Fnv1a64(canonical.data(), canonical.size()));
    if (outcome.ok()) {
      ++stats_.dp_answers;
      if (metrics_ != nullptr) metrics_->OnAnswer(obs::kTierDpDegraded);
    }
  }
  FinishSpan(span, outcome.code());
  if (!outcome.ok()) return outcome;
  return count;
}

void QueryService::AttachPirBackend(FailoverPirClient* pir) {
  TRIPRIV_CHECK(pir != nullptr);
  pir_ = pir;
}

void QueryService::AttachInstruments(obs::ServiceMetrics* metrics) {
  metrics_ = metrics;
  span_ids_ = SpanIds{};
  if (metrics_ != nullptr && metrics_->trace() != nullptr) {
    const obs::TraceRecorder& trace = *metrics_->trace();
    span_ids_.submit = trace.SpanNameId("submit");
    span_ids_.policy = trace.SpanNameId("policy");
    span_ids_.wal_append = trace.SpanNameId("wal_append");
    span_ids_.admission = trace.SpanNameId("admission");
    span_ids_.primary = trace.SpanNameId("primary");
    span_ids_.degraded = trace.SpanNameId("degraded");
    span_ids_.epsilon_charge = trace.SpanNameId("epsilon_charge");
    span_ids_.aggregate_count = trace.SpanNameId("aggregate_count");
    span_ids_.pir_read = trace.SpanNameId("pir_read");
    span_ids_.pir_batch = trace.SpanNameId("pir_batch");
  }
  if (metrics_ != nullptr) {
    // Seed the budget read model with the enforced pool and the
    // WAL-recovered spend, so gauges agree with the durable log from the
    // first snapshot on.
    metrics_->MirrorEpsilonPool(config_.epsilon_budget, epsilon_spent_);
  }
}

void QueryService::PublishMetrics() {
  if (metrics_ == nullptr) return;
  metrics_->PublishQueueDepth(admission_->in_system());
  metrics_->PublishBreaker(/*primary=*/true,
                           static_cast<uint8_t>(primary_breaker_->state()),
                           primary_breaker_->times_opened(),
                           primary_breaker_->rejected(),
                           primary_breaker_->half_open_probes());
  metrics_->PublishBreaker(/*primary=*/false,
                           static_cast<uint8_t>(dp_breaker_->state()),
                           dp_breaker_->times_opened(), dp_breaker_->rejected(),
                           dp_breaker_->half_open_probes());
  if (pir_ != nullptr) {
    metrics_->PublishPir(pir_->total_bytes_xored(), pir_->failovers(),
                         pir_->corrupt_answers_detected(),
                         pir_->total_queries_answered());
    metrics_->PublishPirTransport(pir_->sessions().total_upload_bits(),
                                  pir_->sessions().total_expanded_cells(),
                                  pir_->preprocess_bytes(),
                                  pir_->sessions().num_sessions());
  }
}

uint64_t QueryService::BeginSpan(uint32_t name_id, uint64_t parent,
                                 uint64_t query_id) {
  if (metrics_ == nullptr || metrics_->trace() == nullptr) return 0;
  return metrics_->trace()->StartSpanById(name_id, parent, query_id);
}

void QueryService::FinishSpan(uint64_t span, StatusCode code) {
  if (span == 0 || metrics_ == nullptr || metrics_->trace() == nullptr) return;
  metrics_->trace()->EndSpan(span, code);
}

Result<std::vector<uint8_t>> QueryService::PirRead(size_t index,
                                                   const Deadline& deadline) {
  if (crashed_) {
    return Status::Unavailable("service crashed; recover via Create()");
  }
  if (pir_ == nullptr) {
    return Status::FailedPrecondition("no PIR backend attached");
  }
  const uint64_t span = BeginSpan(span_ids_.pir_read, 0, next_query_id_);
  // The recursive backend keys its expansion session on the request class
  // — the same allowlisted class the admission ladder uses, never a
  // principal id.
  auto record = pir_->Read(index, deadline, request_class_);
  if (metrics_ != nullptr && record.ok()) metrics_->OnPirRead();
  FinishSpan(span, record.status().code());
  return record;
}

std::vector<Result<std::vector<uint8_t>>> QueryService::PirReadBatch(
    const std::vector<size_t>& indices, const Deadline& deadline,
    ThreadPool* pool) {
  if (crashed_) {
    return std::vector<Result<std::vector<uint8_t>>>(
        indices.size(), Result<std::vector<uint8_t>>(Status::Unavailable(
                            "service crashed; recover via Create()")));
  }
  if (pir_ == nullptr) {
    return std::vector<Result<std::vector<uint8_t>>>(
        indices.size(), Result<std::vector<uint8_t>>(Status::FailedPrecondition(
                            "no PIR backend attached")));
  }
  const uint64_t span = BeginSpan(span_ids_.pir_batch, 0, next_query_id_);
  auto records = pir_->ReadBatch(indices, deadline, pool, request_class_);
  if (metrics_ != nullptr) {
    metrics_->OnPirBatch(indices.size());
    for (const auto& record : records) {
      if (record.ok()) metrics_->OnPirRead();
    }
  }
  FinishSpan(span, StatusCode::kOk);
  return records;
}

}  // namespace tripriv
