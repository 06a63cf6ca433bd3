// Tests for QueryService: the degradation ladder, WAL-backed audit
// recovery, admission shedding, deadline enforcement, crash semantics, and
// the attached aggregate-PIR / record-PIR paths.

#include "service/query_service.h"

#include <gtest/gtest.h>

#include <string>

#include "querydb/query.h"
#include "table/datasets.h"

namespace tripriv {
namespace {

StatQuery Parse(const std::string& sql) {
  auto query = ParseQuery(sql);
  TRIPRIV_CHECK(query.ok()) << sql;
  return std::move(query).value();
}

QueryServiceConfig AuditConfig() {
  QueryServiceConfig config;
  config.protection.mode = ProtectionMode::kAudit;
  config.protection.min_query_set_size = 2;
  return config;
}

TEST(QueryServiceTest, HealthyServiceAnswersProtectedAndLogsDecisions) {
  MemWalIo wal;
  auto service = QueryService::Create(PaperDataset2(), AuditConfig(), &wal);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  auto answer = service->Submit(
      Parse("SELECT SUM(blood_pressure) FROM t WHERE height < 172"));
  EXPECT_EQ(answer.tier, AnswerTier::kProtected);
  EXPECT_FALSE(answer.answer.refused);
  EXPECT_EQ(service->stats().protected_answers, 1u);
  // The decision is durable: a fresh recovery sees one admitted record.
  auto recovered = AuditWal::Recover(&wal);
  ASSERT_TRUE(recovered.ok());
  ASSERT_EQ(recovered->records.size(), 1u);
  EXPECT_EQ(recovered->records[0].decision, WalDecision::kAdmitted);
  EXPECT_EQ(recovered->records[0].rows.size(), 5u);  // heights < 172
}

TEST(QueryServiceTest, MatchesStatDatabaseRefusalBehaviour) {
  // The service must refuse exactly what a plain kAudit StatDatabase
  // refuses: the lifted policy is the same code over the same state.
  MemWalIo wal;
  auto service = QueryService::Create(PaperDataset2(), AuditConfig(), &wal);
  ASSERT_TRUE(service.ok());
  ProtectionConfig db_config;
  db_config.mode = ProtectionMode::kAudit;
  db_config.min_query_set_size = 2;
  StatDatabase db(PaperDataset2(), db_config);

  const std::string queries[] = {
      "SELECT SUM(blood_pressure) FROM t WHERE height < 172",
      "SELECT SUM(blood_pressure) FROM t WHERE height < 171",  // diff attack
      "SELECT SUM(blood_pressure) FROM t WHERE weight > 80",
      "SELECT COUNT(*) FROM t WHERE height < 165 AND weight > 105",  // |QS|=1
  };
  for (const auto& sql : queries) {
    auto from_service = service->Submit(Parse(sql));
    auto from_db = db.Query(sql);
    ASSERT_TRUE(from_db.ok());
    EXPECT_EQ(from_service.tier == AnswerTier::kRefused, from_db->refused)
        << sql;
    if (from_db->refused) {
      EXPECT_EQ(from_service.refusal.code(), StatusCode::kPermissionDenied);
    } else {
      EXPECT_DOUBLE_EQ(from_service.answer.value, from_db->value) << sql;
    }
  }
}

TEST(QueryServiceTest, BackendFaultsDegradeToDpNeverUnprotected) {
  MemWalIo wal;
  QueryServiceConfig config = AuditConfig();
  config.faults.backend_fault_rate = 1.0;  // primary path always fails
  config.retry.max_attempts = 2;
  config.epsilon_budget = 100.0;
  auto service = QueryService::Create(PaperDataset2(), config, &wal);
  ASSERT_TRUE(service.ok());

  const StatQuery query =
      Parse("SELECT COUNT(*) FROM t WHERE height < 175");
  auto answer = service->Submit(query);
  ASSERT_EQ(answer.tier, AnswerTier::kDpDegraded);
  EXPECT_FALSE(answer.answer.refused);
  EXPECT_GT(service->epsilon_spent(), 0.0);
  EXPECT_EQ(service->stats().degraded_attempts, 1u);
  // The spend is durable.
  auto recovered = AuditWal::Recover(&wal);
  ASSERT_TRUE(recovered.ok());
  bool saw_spend = false;
  for (const auto& record : recovered->records) {
    saw_spend |= record.type == WalRecordType::kEpsilonSpend;
  }
  EXPECT_TRUE(saw_spend);
}

TEST(QueryServiceTest, ExhaustedEpsilonBudgetRefusesDegradedAnswers) {
  MemWalIo wal;
  QueryServiceConfig config = AuditConfig();
  config.faults.backend_fault_rate = 1.0;
  config.retry.max_attempts = 1;
  config.degrade_epsilon = 0.5;
  config.epsilon_budget = 1.0;  // two degraded answers, then dry
  auto service = QueryService::Create(PaperDataset2(), config, &wal);
  ASSERT_TRUE(service.ok());

  const StatQuery query = Parse("SELECT COUNT(*) FROM t WHERE height < 175");
  EXPECT_EQ(service->Submit(query).tier, AnswerTier::kDpDegraded);
  EXPECT_EQ(service->Submit(query).tier, AnswerTier::kDpDegraded);
  auto third = service->Submit(query);
  EXPECT_EQ(third.tier, AnswerTier::kRefused);
  EXPECT_EQ(third.refusal.code(), StatusCode::kPermissionDenied);
  EXPECT_DOUBLE_EQ(service->epsilon_spent(), 1.0);
}

TEST(QueryServiceTest, EpsilonSpendSurvivesRestart) {
  MemWalIo wal;
  QueryServiceConfig config = AuditConfig();
  config.faults.backend_fault_rate = 1.0;
  config.retry.max_attempts = 1;
  config.degrade_epsilon = 0.5;
  config.epsilon_budget = 1.0;
  const StatQuery query = Parse("SELECT COUNT(*) FROM t WHERE height < 175");
  {
    auto service = QueryService::Create(PaperDataset2(), config, &wal);
    ASSERT_TRUE(service.ok());
    EXPECT_EQ(service->Submit(query).tier, AnswerTier::kDpDegraded);
    EXPECT_EQ(service->Submit(query).tier, AnswerTier::kDpDegraded);
  }
  // Restart: the budget must not reset — waiting out a crash is not a way
  // to buy more epsilon.
  auto service = QueryService::Create(PaperDataset2(), config, &wal);
  ASSERT_TRUE(service.ok());
  EXPECT_DOUBLE_EQ(service->epsilon_spent(), 1.0);
  auto again = service->Submit(query);
  EXPECT_EQ(again.tier, AnswerTier::kRefused);
}

TEST(QueryServiceTest, AuditStateSurvivesRestart) {
  MemWalIo wal;
  {
    auto service = QueryService::Create(PaperDataset2(), AuditConfig(), &wal);
    ASSERT_TRUE(service.ok());
    auto first = service->Submit(
        Parse("SELECT SUM(blood_pressure) FROM t WHERE height < 172"));
    ASSERT_EQ(first.tier, AnswerTier::kProtected);
  }
  auto service = QueryService::Create(PaperDataset2(), AuditConfig(), &wal);
  ASSERT_TRUE(service.ok());
  EXPECT_EQ(service->audit_policy().answered_sets().size(), 1u);
  // The difference attack across the restart boundary is still blocked.
  auto second = service->Submit(
      Parse("SELECT SUM(blood_pressure) FROM t WHERE height < 171"));
  EXPECT_EQ(second.tier, AnswerTier::kRefused);
  EXPECT_EQ(second.refusal.code(), StatusCode::kPermissionDenied);
}

TEST(QueryServiceTest, AdmissionShedsBurstsWithTypedStatus) {
  MemWalIo wal;
  QueryServiceConfig config = AuditConfig();
  config.admission.capacity = 2;
  config.admission.service_ticks = 1000;  // nothing drains during the burst
  auto service = QueryService::Create(PaperDataset2(), config, &wal);
  ASSERT_TRUE(service.ok());

  const StatQuery query = Parse("SELECT COUNT(*) FROM t WHERE height < 175");
  EXPECT_EQ(service->Submit(query).tier, AnswerTier::kProtected);
  EXPECT_EQ(service->Submit(query).tier, AnswerTier::kProtected);
  auto shed = service->Submit(query);
  EXPECT_EQ(shed.tier, AnswerTier::kRefused);
  EXPECT_EQ(shed.refusal.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service->stats().shed, 1u);
}

TEST(QueryServiceTest, ExpiredDeadlineRefusesButStillRecordsTheDecision) {
  MemWalIo wal;
  auto service = QueryService::Create(PaperDataset2(), AuditConfig(), &wal);
  ASSERT_TRUE(service.ok());

  // Deadline already expired: typed refusal...
  auto late = service->Submit(
      Parse("SELECT SUM(blood_pressure) FROM t WHERE height < 172"),
      Deadline::After(*service->sim_clock(), 0));
  EXPECT_EQ(late.tier, AnswerTier::kRefused);
  EXPECT_EQ(late.refusal.code(), StatusCode::kDeadlineExceeded);
  // ...but the audit decision was recorded BEFORE the deadline check, so a
  // follow-up overlapping query is refused exactly as if the first had been
  // answered. Faults narrow what is answered; they never widen it.
  auto overlap = service->Submit(
      Parse("SELECT SUM(blood_pressure) FROM t WHERE height < 171"));
  EXPECT_EQ(overlap.tier, AnswerTier::kRefused);
  EXPECT_EQ(overlap.refusal.code(), StatusCode::kPermissionDenied);
}

TEST(QueryServiceTest, CrashMidAnswerFailsClosedAndRecoversMonotonically) {
  MemWalIo wal;
  QueryServiceConfig config = AuditConfig();
  config.faults.crash_mid_answer_rate = 1.0;
  {
    auto service = QueryService::Create(PaperDataset2(), config, &wal);
    ASSERT_TRUE(service.ok());
    auto answer = service->Submit(
        Parse("SELECT SUM(blood_pressure) FROM t WHERE height < 172"));
    EXPECT_EQ(answer.tier, AnswerTier::kRefused);
    EXPECT_EQ(answer.refusal.code(), StatusCode::kUnavailable);
    EXPECT_TRUE(service->crashed());
    // Once crashed, everything refuses.
    auto after = service->Submit(Parse("SELECT COUNT(*) FROM t"));
    EXPECT_EQ(after.tier, AnswerTier::kRefused);
  }
  wal.SimulateCrash();
  // Restart on the surviving log: the decision committed before the crash
  // is part of the recovered audit state (it might have been released).
  QueryServiceConfig healthy = AuditConfig();
  auto service = QueryService::Create(PaperDataset2(), healthy, &wal);
  ASSERT_TRUE(service.ok());
  EXPECT_EQ(service->audit_policy().answered_sets().size(), 1u);
  auto overlap = service->Submit(
      Parse("SELECT SUM(blood_pressure) FROM t WHERE height < 171"));
  EXPECT_EQ(overlap.tier, AnswerTier::kRefused);
}

TEST(QueryServiceTest, WalFailureWithholdsAnswersButKeepsRefusing) {
  MemWalIo base;
  WalFaultPlan plan;
  plan.die_after_appends = 0;  // WAL device dead from the start
  FaultyWalIo wal(&base, plan);
  auto service = QueryService::Create(PaperDataset2(), AuditConfig(), &wal);
  ASSERT_TRUE(service.ok());

  // An admissible query cannot be acknowledged without a durable record.
  auto answer = service->Submit(
      Parse("SELECT SUM(blood_pressure) FROM t WHERE height < 172"));
  EXPECT_EQ(answer.tier, AnswerTier::kRefused);
  EXPECT_EQ(answer.refusal.code(), StatusCode::kUnavailable);
  EXPECT_GE(service->stats().wal_append_failures, 1u);
  // Policy refusals are still released (refusing is always safe) ...
  auto refused = service->Submit(
      Parse("SELECT COUNT(*) FROM t WHERE height < 165 AND weight > 105"));
  EXPECT_EQ(refused.tier, AnswerTier::kRefused);
  EXPECT_EQ(refused.refusal.code(), StatusCode::kPermissionDenied);
  // ... and the in-memory audit state kept growing despite the dead WAL:
  // the first query's set still blocks its difference-attack partner.
  auto overlap = service->Submit(
      Parse("SELECT SUM(blood_pressure) FROM t WHERE height < 171"));
  EXPECT_EQ(overlap.tier, AnswerTier::kRefused);
  EXPECT_EQ(overlap.refusal.code(), StatusCode::kPermissionDenied);
}

TEST(QueryServiceTest, MalformedQueryRefusesWithoutTouchingAuditState) {
  MemWalIo wal;
  auto service = QueryService::Create(PaperDataset2(), AuditConfig(), &wal);
  ASSERT_TRUE(service.ok());
  StatQuery bad = Parse("SELECT COUNT(*) FROM t WHERE height < 175");
  bad.where = Predicate::Compare("no_such_column", CompareOp::kLt, Value(1));
  auto answer = service->Submit(bad);
  EXPECT_EQ(answer.tier, AnswerTier::kRefused);
  EXPECT_EQ(service->audit_policy().answered_sets().size(), 0u);
  EXPECT_EQ(wal.size(), 0u);
}

TEST(QueryServiceTest, PrivateDpCountRunsThroughReplicaFailover) {
  MemWalIo wal;
  QueryServiceConfig config = AuditConfig();
  config.faults.aggregate_fault_rate = 0.5;
  config.faults.seed = 99;
  config.epsilon_budget = 100.0;
  auto service = QueryService::Create(PaperDataset2(), config, &wal);
  ASSERT_TRUE(service.ok());

  std::vector<GridAxis> grid = {{"height", 140, 205, 1},
                                {"weight", 40, 160, 1}};
  auto replica_a = PrivateAggregateServer::Build(PaperDataset2(), grid);
  auto replica_b = PrivateAggregateServer::Build(PaperDataset2(), grid);
  ASSERT_TRUE(replica_a.ok());
  ASSERT_TRUE(replica_b.ok());
  auto client = PrivateAggregateClient::Create(192, 3);
  ASSERT_TRUE(client.ok());
  Rng server_rng(21);
  service->AttachAggregateBackends({&*replica_a, &*replica_b}, &*client,
                                   &server_rng);

  Predicate predicate = Predicate::Compare("height", CompareOp::kLt, Value(175));
  const double spent_before = service->epsilon_spent();
  auto count = service->PrivateDpCount(predicate, Deadline());
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_GT(service->epsilon_spent(), spent_before);  // durable spend charged
  // The noisy count is within a plausible Laplace band of the truth (7 of
  // the 10 dataset-2 patients are shorter than 175 cm).
  EXPECT_NEAR(static_cast<double>(*count), 7.0, 60.0);
}

TEST(QueryServiceTest, PrivateDpCountWithoutBackendsIsTyped) {
  MemWalIo wal;
  auto service = QueryService::Create(PaperDataset2(), AuditConfig(), &wal);
  ASSERT_TRUE(service.ok());
  Predicate predicate = Predicate::Compare("height", CompareOp::kLt, Value(175));
  EXPECT_EQ(service->PrivateDpCount(predicate, Deadline()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(QueryServiceTest, PirReadRoutesThroughAttachedFailoverClient) {
  MemWalIo wal;
  auto service = QueryService::Create(PaperDataset2(), AuditConfig(), &wal);
  ASSERT_TRUE(service.ok());
  EXPECT_EQ(service->PirRead(0, Deadline()).status().code(),
            StatusCode::kFailedPrecondition);

  std::vector<std::vector<uint8_t>> records = {{1, 2}, {3, 4}, {5, 6}};
  auto pir = FailoverPirClient::Build(records, 2, RetryPolicy{},
                                      service->sim_clock(), 5);
  ASSERT_TRUE(pir.ok());
  pir->InjectFault(0, PirServerFault{.crashed = true});
  service->AttachPirBackend(&*pir);
  auto read = service->PirRead(1, Deadline());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, records[1]);
}

TEST(QueryServiceTest, BreakerGatesEveryRetryAttempt) {
  // Regression: AllowRequest used to run once before the retry loop, so a
  // first attempt that tripped the breaker left the remaining retries
  // hammering the backend without breaker permission.
  MemWalIo wal;
  QueryServiceConfig config = AuditConfig();
  // Query-set-size mode: stateless, so the breaker (not audit overlap)
  // decides every outcome here.
  config.protection.mode = ProtectionMode::kQuerySetSize;
  config.faults.backend_fault_rate = 1.0;
  config.breaker.failure_threshold = 1;
  config.breaker.open_ticks = 1000;
  config.breaker.open_jitter_ticks = 0;
  config.retry.max_attempts = 4;
  config.retry.initial_backoff_ticks = 1;
  config.default_deadline_ticks = 500;
  auto service = QueryService::Create(PaperDataset2(), config, &wal);
  ASSERT_TRUE(service.ok());

  auto answer =
      service->Submit(Parse("SELECT COUNT(*) FROM t WHERE height < 175"));
  // Attempt 1 fails and trips the breaker; attempt 2 is breaker-rejected
  // and the primary path bails out to the degraded ladder at once.
  EXPECT_EQ(service->primary_breaker().state(), BreakerState::kOpen);
  EXPECT_GE(service->primary_breaker().rejected(), 1u);
  EXPECT_EQ(answer.tier, AnswerTier::kDpDegraded);
}

TEST(QueryServiceTest, HalfOpenWindowAdmitsExactlyOneProbeUnderBurst) {
  // A request with a multi-attempt retry budget arriving in the half-open
  // window must spend exactly ONE trial request: the probe fails, the
  // breaker reopens, and the remaining attempts are rejected — never a
  // burst of trials against a barely-recovered backend.
  MemWalIo wal;
  QueryServiceConfig config = AuditConfig();
  // Stateless protection: the same query can run twice without the audit
  // overlap policy refusing the second before it reaches the breaker.
  config.protection.mode = ProtectionMode::kQuerySetSize;
  config.faults.backend_fault_rate = 1.0;
  config.breaker.failure_threshold = 1;
  config.breaker.open_ticks = 8;
  config.breaker.open_jitter_ticks = 0;
  config.retry.max_attempts = 4;
  config.retry.initial_backoff_ticks = 1;
  config.default_deadline_ticks = 500;
  auto service = QueryService::Create(PaperDataset2(), config, &wal);
  ASSERT_TRUE(service.ok());

  const StatQuery query = Parse("SELECT COUNT(*) FROM t WHERE height < 175");
  EXPECT_EQ(service->Submit(query).tier, AnswerTier::kDpDegraded);
  EXPECT_EQ(service->primary_breaker().state(), BreakerState::kOpen);
  EXPECT_EQ(service->primary_breaker().half_open_probes(), 0u);

  // Past the open window: the next request is the half-open burst.
  service->sim_clock()->Advance(16);
  const uint64_t rejected_before = service->primary_breaker().rejected();
  EXPECT_EQ(service->Submit(query).tier, AnswerTier::kDpDegraded);
  EXPECT_EQ(service->primary_breaker().half_open_probes(), 1u);
  EXPECT_EQ(service->primary_breaker().state(), BreakerState::kOpen);
  EXPECT_GT(service->primary_breaker().rejected(), rejected_before);
}

TEST(QueryServiceTest, DeadlineDuringHalfOpenProbeDoesNotWedgeBreaker) {
  // Regression: a half-open probe whose request deadline ran out mid-scan
  // reported nothing to the breaker, so its probe slot stayed taken and
  // every later request was breaker-rejected — degrading to epsilon-DP or
  // refused — until a restart.
  MemWalIo wal;
  QueryServiceConfig config = AuditConfig();
  config.protection.mode = ProtectionMode::kQuerySetSize;
  config.faults.backend_fault_rate = 0.5;
  config.faults.seed = 1;
  config.breaker.failure_threshold = 1;
  config.breaker.open_ticks = 4;
  config.breaker.open_jitter_ticks = 0;
  auto service = QueryService::Create(PaperDataset2(), config, &wal);
  ASSERT_TRUE(service.ok());
  SimClock* clock = service->sim_clock();
  const StatQuery query = Parse("SELECT COUNT(*) FROM t WHERE height < 175");

  for (int i = 0; i < 100; ++i) {
    if (service->primary_breaker().state() == BreakerState::kOpen) break;
    service->Submit(query);
  }
  ASSERT_EQ(service->primary_breaker().state(), BreakerState::kOpen);
  clock->Advance(10);
  // The half-open probe, with less budget left than its scan costs.
  service->Submit(query, Deadline::After(*clock, 1));
  EXPECT_FALSE(service->primary_breaker().probe_in_flight());

  size_t protected_answers = 0;
  for (int i = 0; i < 40; ++i) {
    clock->Advance(50);
    if (service->Submit(query).tier == AnswerTier::kProtected) {
      ++protected_answers;
    }
  }
  EXPECT_GT(protected_answers, 0u);
}

}  // namespace
}  // namespace tripriv
