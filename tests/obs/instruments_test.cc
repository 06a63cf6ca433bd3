// ServiceMetrics integration: the instrumented serving ladder's counters
// mirror ServiceStats, spans follow the ladder stages, durable epsilon
// spends (including WAL-recovered ones) mirror into the budget accountant
// as the one pool the service enforces, PublishMetrics copies component
// counters into gauges, and the bundle registers only series that src/
// writes.

#include "obs/instruments.h"

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "obs/budget.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pir/aggregate.h"
#include "querydb/query.h"
#include "service/batch_executor.h"
#include "service/pir_failover.h"
#include "service/query_service.h"
#include "table/datasets.h"
#include "util/random.h"

namespace tripriv {
namespace {

using obs::MetricSample;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::PrivacyBudgetAccountant;
using obs::ServiceMetrics;
using obs::TraceRecorder;

StatQuery Parse(const std::string& sql) {
  auto query = ParseQuery(sql);
  TRIPRIV_CHECK(query.ok()) << sql;
  return std::move(query).value();
}

std::vector<StatQuery> WorkloadBatch() {
  return {
      Parse("SELECT SUM(blood_pressure) FROM t WHERE height < 172"),
      Parse("SELECT COUNT(*) FROM t WHERE weight > 80"),
      Parse("SELECT SUM(blood_pressure) FROM t WHERE height < 171"),
      Parse("SELECT AVG(weight) FROM t WHERE height >= 160"),
      Parse("SELECT COUNT(*) FROM t WHERE height < 165 AND weight > 105"),
      Parse("SELECT SUM(weight) FROM t WHERE blood_pressure > 100"),
  };
}

QueryServiceConfig AuditConfig(double fault_rate) {
  QueryServiceConfig config;
  config.protection.mode = ProtectionMode::kAudit;
  config.protection.min_query_set_size = 2;
  config.faults.backend_fault_rate = fault_rate;
  return config;
}

const MetricSample* Find(const MetricsSnapshot& snapshot,
                         const std::string& name, const obs::LabelSet& labels) {
  for (const MetricSample& sample : snapshot.samples) {
    if (sample.name == name && sample.labels == labels) return &sample;
  }
  return nullptr;
}

uint64_t CounterValue(const MetricsSnapshot& snapshot, const std::string& name,
                      const obs::LabelSet& labels = {}) {
  const MetricSample* sample = Find(snapshot, name, labels);
  if (sample == nullptr) {
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  }
  return sample->counter_value;
}

double GaugeValue(const MetricsSnapshot& snapshot, const std::string& name,
                  const obs::LabelSet& labels = {}) {
  const MetricSample* sample = Find(snapshot, name, labels);
  if (sample == nullptr) {
    ADD_FAILURE() << "missing gauge " << name;
    return -1.0;
  }
  return sample->gauge_value;
}

struct Harness {
  MetricsRegistry registry;
  std::unique_ptr<TraceRecorder> trace;
  std::unique_ptr<PrivacyBudgetAccountant> accountant;
  std::unique_ptr<ServiceMetrics> metrics;

  void Attach(QueryService* service) {
    trace = std::make_unique<TraceRecorder>(service->sim_clock());
    accountant = std::make_unique<PrivacyBudgetAccountant>(&registry);
    auto bundle =
        ServiceMetrics::Create(&registry, trace.get(), accountant.get());
    TRIPRIV_CHECK(bundle.ok());
    metrics = std::make_unique<ServiceMetrics>(std::move(*bundle));
    service->AttachInstruments(metrics.get());
  }
};

TEST(InstrumentsTest, CountersMirrorServiceStats) {
  MemWalIo wal;
  auto service = QueryService::Create(PaperDataset2(), AuditConfig(0.3), &wal);
  ASSERT_TRUE(service.ok());
  Harness harness;
  harness.Attach(&*service);

  BatchExecutor executor(&*service, nullptr);
  executor.ExecuteQueryBatch(WorkloadBatch());

  const ServiceStats& stats = service->stats();
  ASSERT_EQ(stats.received, 6u);
  const MetricsSnapshot snapshot = harness.registry.Snapshot();
  EXPECT_EQ(CounterValue(snapshot, "tripriv_service_answers_total",
                         {{"tier", "protected"}}),
            stats.protected_answers);
  EXPECT_EQ(CounterValue(snapshot, "tripriv_service_answers_total",
                         {{"tier", "dp_degraded"}}),
            stats.dp_answers);
  EXPECT_EQ(CounterValue(snapshot, "tripriv_service_answers_total",
                         {{"tier", "refused"}}),
            stats.refusals);
  EXPECT_EQ(CounterValue(snapshot, "tripriv_service_policy_refusals_total",
                         {{"dimension", "owner"}}),
            stats.policy_refusals);
  EXPECT_EQ(CounterValue(snapshot, "tripriv_service_shed_total"), stats.shed);
  EXPECT_EQ(CounterValue(snapshot, "tripriv_wal_append_failures_total"),
            stats.wal_append_failures);
  EXPECT_EQ(CounterValue(snapshot, "tripriv_wal_bytes_total"),
            service->wal().bytes_appended());
  // One fsync-latency observation per durable append.
  const MetricSample* fsync = Find(snapshot, "tripriv_wal_fsync_ticks", {});
  ASSERT_NE(fsync, nullptr);
  EXPECT_EQ(fsync->histogram.count,
            CounterValue(snapshot, "tripriv_wal_appends_total"));
  EXPECT_GT(fsync->histogram.count, 0u);
  // The batch-shape histogram saw exactly one batch of six.
  const MetricSample* batch = Find(snapshot, "tripriv_stat_batch_size", {});
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->histogram.count, 1u);
  EXPECT_EQ(batch->histogram.sum, 6u);
}

TEST(InstrumentsTest, ShedsCarryTenantClassLabels) {
  MemWalIo wal;
  QueryServiceConfig config = AuditConfig(0.0);
  // Stateless protection so every Submit clears the policy stage and the
  // admission queue is the only thing refusing.
  config.protection.mode = ProtectionMode::kQuerySetSize;
  config.admission.capacity = 1;
  config.admission.service_ticks = 1000;  // nothing drains during the burst
  auto service = QueryService::Create(PaperDataset2(), config, &wal);
  ASSERT_TRUE(service.ok());
  Harness harness;
  harness.Attach(&*service);

  // Fill the one admission slot, then shed twice: once tagged interactive,
  // once untagged (the tag resets after every request, so the third Submit
  // must land in "unattributed", not inherit "interactive").
  const StatQuery query = Parse("SELECT COUNT(*) FROM t WHERE height < 175");
  EXPECT_EQ(service->Submit(query).tier, AnswerTier::kProtected);
  service->set_request_class(obs::kClassInteractive);
  auto shed_tagged = service->Submit(query);
  EXPECT_EQ(shed_tagged.refusal.code(), StatusCode::kResourceExhausted);
  auto shed_untagged = service->Submit(query);
  EXPECT_EQ(shed_untagged.refusal.code(), StatusCode::kResourceExhausted);

  const MetricsSnapshot snapshot = harness.registry.Snapshot();
  EXPECT_EQ(CounterValue(snapshot, "tripriv_service_shed_total"), 2u);
  EXPECT_EQ(CounterValue(snapshot, "tripriv_service_shed_by_class_total",
                         {{"class", "interactive"}}),
            1u);
  EXPECT_EQ(CounterValue(snapshot, "tripriv_service_shed_by_class_total",
                         {{"class", "unattributed"}}),
            1u);
  EXPECT_EQ(CounterValue(snapshot, "tripriv_service_shed_by_class_total",
                         {{"class", "abusive"}}),
            0u);
}

TEST(InstrumentsTest, SpansFollowTheServingLadder) {
  MemWalIo wal;
  auto service = QueryService::Create(PaperDataset2(), AuditConfig(0.0), &wal);
  ASSERT_TRUE(service.ok());
  Harness harness;
  harness.Attach(&*service);

  const ServiceAnswer answer =
      service->Submit(Parse("SELECT COUNT(*) FROM t WHERE weight > 80"));
  EXPECT_EQ(answer.tier, AnswerTier::kProtected);

  TraceRecorder& trace = *harness.trace;
  ASSERT_GE(trace.num_spans(), 3u);
  const obs::TraceSpan& root = trace.span(0);
  EXPECT_EQ(root.name, "submit");
  EXPECT_EQ(root.parent_id, 0u);
  EXPECT_TRUE(root.closed);
  EXPECT_EQ(root.status, "OK");
  bool saw_policy = false;
  bool saw_wal = false;
  for (size_t i = 1; i < trace.num_spans(); ++i) {
    const obs::TraceSpan& span = trace.span(i);
    EXPECT_EQ(span.parent_id, root.id) << span.name;
    EXPECT_TRUE(span.closed) << span.name;
    if (span.name == "policy") saw_policy = true;
    if (span.name == "wal_append") saw_wal = true;
  }
  EXPECT_TRUE(saw_policy);
  EXPECT_TRUE(saw_wal);
}

TEST(InstrumentsTest, EpsilonSpendsMirrorIntoBudget) {
  // Every primary attempt fails, so every non-refused answer is a degraded
  // DP answer and charges the durable budget.
  MemWalIo wal;
  auto service = QueryService::Create(PaperDataset2(), AuditConfig(1.0), &wal);
  ASSERT_TRUE(service.ok());
  Harness harness;
  harness.Attach(&*service);
  for (const StatQuery& query : WorkloadBatch()) service->Submit(query);
  ASSERT_GT(service->stats().dp_answers, 0u);
  EXPECT_GT(service->epsilon_spent(), 0.0);
  EXPECT_DOUBLE_EQ(harness.accountant->spent("degraded_path"),
                   service->epsilon_spent());
  EXPECT_DOUBLE_EQ(harness.accountant->remaining("degraded_path"),
                   8.0 - service->epsilon_spent());

  // Restart on the same WAL: AttachInstruments seeds a fresh accountant
  // with the recovered spend, so gauges agree with the durable log.
  auto restarted =
      QueryService::Create(PaperDataset2(), AuditConfig(1.0), &wal);
  ASSERT_TRUE(restarted.ok());
  EXPECT_DOUBLE_EQ(restarted->epsilon_spent(), service->epsilon_spent());
  Harness fresh;
  fresh.Attach(&*restarted);
  EXPECT_DOUBLE_EQ(fresh.accountant->spent("degraded_path"),
                   restarted->epsilon_spent());
}

TEST(InstrumentsTest, PublishCopiesComponentCountersIntoGauges) {
  MemWalIo wal;
  auto service = QueryService::Create(PaperDataset2(), AuditConfig(1.0), &wal);
  ASSERT_TRUE(service.ok());
  Harness harness;
  harness.Attach(&*service);
  for (const StatQuery& query : WorkloadBatch()) service->Submit(query);

  // A PIR backend with one always-corrupting server forces failovers.
  std::vector<std::vector<uint8_t>> records(64, std::vector<uint8_t>(8));
  Rng fill(51);
  for (auto& record : records) {
    for (auto& byte : record) byte = static_cast<uint8_t>(fill.NextU64());
  }
  SimClock pir_clock;
  auto pir = FailoverPirClient::Build(records, /*num_pairs=*/2, RetryPolicy{},
                                      &pir_clock, /*seed=*/52);
  ASSERT_TRUE(pir.ok());
  PirServerFault corrupt;
  corrupt.corrupt_rate = 1.0;
  pir->InjectFault(1, corrupt);
  service->AttachPirBackend(&*pir);
  auto one = service->PirRead(5, Deadline());
  ASSERT_TRUE(one.ok());
  auto batch = service->PirReadBatch({1, 2, 3}, Deadline());
  for (const auto& record : batch) ASSERT_TRUE(record.ok());

  // Breaker-open submissions refuse without burning backoff ticks, so
  // advance simulated time until every admitted request's virtual service
  // window has passed before sampling gauges.
  service->sim_clock()->Advance(64);
  service->PublishMetrics();
  const MetricsSnapshot snapshot = harness.registry.Snapshot();
  const obs::LabelSet primary = {{"backend", "primary"}};
  EXPECT_DOUBLE_EQ(
      GaugeValue(snapshot, "tripriv_breaker_state", primary),
      static_cast<double>(
          static_cast<uint8_t>(service->primary_breaker().state())));
  EXPECT_DOUBLE_EQ(
      GaugeValue(snapshot, "tripriv_breaker_opens", primary),
      static_cast<double>(service->primary_breaker().times_opened()));
  EXPECT_GT(GaugeValue(snapshot, "tripriv_breaker_opens", primary), 0.0);
  EXPECT_DOUBLE_EQ(
      GaugeValue(snapshot, "tripriv_breaker_rejections", primary),
      static_cast<double>(service->primary_breaker().rejected()));
  EXPECT_DOUBLE_EQ(
      GaugeValue(snapshot, "tripriv_breaker_half_open_probes", primary),
      static_cast<double>(service->primary_breaker().half_open_probes()));
  // Serial submits (plus the explicit advance above) drain the admission
  // queue before Publish runs.
  EXPECT_DOUBLE_EQ(GaugeValue(snapshot, "tripriv_service_queue_depth"), 0.0);
  const obs::LabelSet user = {{"dimension", "user"}};
  EXPECT_DOUBLE_EQ(GaugeValue(snapshot, "tripriv_pir_bytes_xored", user),
                   static_cast<double>(pir->total_bytes_xored()));
  EXPECT_DOUBLE_EQ(GaugeValue(snapshot, "tripriv_pir_failover_replays", user),
                   static_cast<double>(pir->failovers()));
  EXPECT_GT(GaugeValue(snapshot, "tripriv_pir_corrupt_answers", user), 0.0);
  EXPECT_DOUBLE_EQ(
      GaugeValue(snapshot, "tripriv_pir_queries_answered", user),
      static_cast<double>(pir->total_queries_answered()));
  EXPECT_EQ(CounterValue(snapshot, "tripriv_pir_reads_total", user), 4u);
  const MetricSample* batch_size =
      Find(snapshot, "tripriv_pir_batch_size", user);
  ASSERT_NE(batch_size, nullptr);
  EXPECT_EQ(batch_size->histogram.count, 1u);
  EXPECT_EQ(batch_size->histogram.sum, 3u);
}

TEST(InstrumentsTest, EpsilonGaugesDescribeTheEnforcedPool) {
  // The degraded path and the aggregate-PIR DP count draw on ONE epsilon
  // pool. Once it is spent, both paths refuse, and the accountant must say
  // so: one principal at the service's budget with nothing remaining, live
  // and again after a restart on the same WAL.
  MemWalIo wal;
  QueryServiceConfig config = AuditConfig(1.0);
  config.retry.max_attempts = 1;
  config.degrade_epsilon = 0.5;
  config.epsilon_budget = 2.0;
  const std::vector<GridAxis> grid = {{"height", 140, 209, 5},
                                      {"weight", 40, 169, 10}};
  auto replica = PrivateAggregateServer::Build(PaperDataset2(), grid);
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  auto client = PrivateAggregateClient::Create(192, 3);
  ASSERT_TRUE(client.ok());
  Rng server_rng(21);
  const StatQuery query = Parse("SELECT COUNT(*) FROM t WHERE height < 175");
  const Predicate predicate =
      Predicate::Compare("height", CompareOp::kLt, Value(175));

  auto expect_pool = [](const Harness& harness, const char* when) {
    EXPECT_EQ(harness.accountant->num_principals(), 1u) << when;
    const MetricsSnapshot snapshot = harness.registry.Snapshot();
    const obs::LabelSet pool = {{"dimension", "respondent"},
                                {"principal", "degraded_path"}};
    EXPECT_DOUBLE_EQ(
        GaugeValue(snapshot, "tripriv_privacy_epsilon_spent", pool), 2.0)
        << when;
    EXPECT_DOUBLE_EQ(
        GaugeValue(snapshot, "tripriv_privacy_epsilon_remaining", pool), 0.0)
        << when;
    EXPECT_DOUBLE_EQ(
        GaugeValue(snapshot, "tripriv_privacy_epsilon_budget", pool), 2.0)
        << when;
  };

  auto service = QueryService::Create(PaperDataset2(), config, &wal);
  ASSERT_TRUE(service.ok());
  Harness harness;
  harness.Attach(&*service);
  service->AttachAggregateBackends({&*replica}, &*client, &server_rng);
  ASSERT_EQ(service->Submit(query).tier, AnswerTier::kDpDegraded);
  ASSERT_EQ(service->Submit(query).tier, AnswerTier::kDpDegraded);
  ASSERT_TRUE(service->PrivateDpCount(predicate, Deadline()).ok());
  ASSERT_TRUE(service->PrivateDpCount(predicate, Deadline()).ok());
  ASSERT_DOUBLE_EQ(service->epsilon_spent(), 2.0);
  EXPECT_EQ(service->Submit(query).refusal.code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(service->PrivateDpCount(predicate, Deadline()).status().code(),
            StatusCode::kPermissionDenied);
  expect_pool(harness, "live");

  auto restarted = QueryService::Create(PaperDataset2(), config, &wal);
  ASSERT_TRUE(restarted.ok());
  ASSERT_DOUBLE_EQ(restarted->epsilon_spent(), 2.0);
  Harness fresh;
  fresh.Attach(&*restarted);
  expect_pool(fresh, "restarted");
}

TEST(InstrumentsTest, ServiceBundleRegistersOnlyPublishedSeries) {
  // Every series a fresh bundle exports has a push or publish in src/ that
  // writes it; a series without a writer would export 0 forever. Budget
  // principals are QueryService's to register, so the accountant stays
  // empty until a service attaches.
  MetricsRegistry registry;
  PrivacyBudgetAccountant accountant(&registry);
  auto bundle = ServiceMetrics::Create(&registry, nullptr, &accountant);
  ASSERT_TRUE(bundle.ok());
  EXPECT_EQ(accountant.num_principals(), 0u);
  std::set<std::string> names;
  for (const MetricSample& sample : registry.Snapshot().samples) {
    names.insert(sample.name);
  }
  const std::set<std::string> published = {
      // push
      "tripriv_service_answers_total",
      "tripriv_service_shed_total",
      "tripriv_service_shed_by_class_total",
      "tripriv_service_policy_refusals_total",
      "tripriv_service_crashes_total",
      "tripriv_wal_appends_total",
      "tripriv_wal_append_failures_total",
      "tripriv_wal_bytes_total",
      "tripriv_wal_fsync_ticks",
      "tripriv_stat_batch_size",
      "tripriv_pir_batch_size",
      "tripriv_pir_reads_total",
      // publish
      "tripriv_service_queue_depth",
      "tripriv_breaker_state",
      "tripriv_breaker_opens",
      "tripriv_breaker_rejections",
      "tripriv_breaker_half_open_probes",
      "tripriv_pir_bytes_xored",
      "tripriv_pir_failover_replays",
      "tripriv_pir_corrupt_answers",
      "tripriv_pir_queries_answered",
      "tripriv_pir_upload_bits",
      "tripriv_pir_expanded_cells",
      "tripriv_pir_preprocess_bytes",
      "tripriv_pir_sessions",
  };
  EXPECT_EQ(names, published);
}

}  // namespace
}  // namespace tripriv
