// Replay idempotence: recovering the same WAL twice — or re-attaching
// instruments after a restart — must leave epsilon-spend gauges and epoch
// counters exactly where one recovery put them. RecordSpend would
// double-charge on every replay; SyncRecoveredSpend (absolute, monotone)
// is the regression under test, alongside the epoch-side rule that
// recovery mirrors state with absolute Sets only.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "obs/budget.h"
#include "obs/instruments.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "querydb/query.h"
#include "service/epoch_service.h"
#include "service/query_service.h"
#include "table/datasets.h"

namespace tripriv {
namespace {

using obs::MetricsRegistry;
using obs::PrivacyBudgetAccountant;

EpochConfig EpochTestConfig() {
  EpochConfig config;
  config.k = 3;
  config.qi_cols = {0, 1};
  return config;
}

TEST(WalReplayIdempotenceTest, RecoveredSpendNeverRollsTheGaugeBack) {
  MetricsRegistry registry;
  PrivacyBudgetAccountant accountant(&registry);
  ASSERT_TRUE(accountant
                  .RegisterPrincipal("p", obs::PrivacyDimension::kRespondent,
                                     10.0)
                  .ok());
  ASSERT_TRUE(accountant.RecordSpend("p", 3.0).ok());
  // A stale replay (lower absolute total) must not roll the fact back.
  ASSERT_TRUE(accountant.SyncRecoveredSpend("p", 2.0).ok());
  EXPECT_DOUBLE_EQ(accountant.spent("p"), 3.0);
  // A newer total raises it; replaying the same total is a no-op.
  ASSERT_TRUE(accountant.SyncRecoveredSpend("p", 5.0).ok());
  ASSERT_TRUE(accountant.SyncRecoveredSpend("p", 5.0).ok());
  EXPECT_DOUBLE_EQ(accountant.spent("p"), 5.0);
}

TEST(WalReplayIdempotenceTest, RecoveryAppendsNothingToTheWal) {
  MemWalIo wal;
  EpochStore store;
  {
    auto db = EpochedDatabase::Create(MakeClinicalTrial(20, 5),
                                      EpochTestConfig(), &wal, &store);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db->SubmitMutation(RowMutation::Delete(0)).ok());
    ASSERT_TRUE(db->Flip().ok());
  }
  const size_t bytes_before = wal.size();
  for (int recovery = 1; recovery <= 2; ++recovery) {
    auto db = EpochedDatabase::Create(MakeClinicalTrial(20, 5),
                                      EpochTestConfig(), &wal, &store);
    ASSERT_TRUE(db.ok());
  }
  // Recovery re-reads facts; it does not create them. A recovery that
  // appended would make every crash loop grow the log without bound.
  EXPECT_EQ(wal.size(), bytes_before);
}

using obs::MetricSample;
using obs::MetricsSnapshot;
using obs::ServiceMetrics;
using obs::TraceRecorder;

StatQuery Parse(const std::string& sql) {
  auto query = ParseQuery(sql);
  TRIPRIV_CHECK(query.ok()) << sql;
  return std::move(query).value();
}

double GaugeValue(const MetricsSnapshot& snapshot, const std::string& name,
                  const obs::LabelSet& labels) {
  for (const MetricSample& sample : snapshot.samples) {
    if (sample.name == name && sample.labels == labels) {
      return sample.gauge_value;
    }
  }
  ADD_FAILURE() << "missing gauge " << name;
  return -1.0;
}

TEST(WalReplayIdempotenceTest, EpsilonGaugesSurviveDoubleRecovery) {
  MemWalIo wal;
  QueryServiceConfig config;
  config.protection.mode = ProtectionMode::kAudit;
  config.protection.min_query_set_size = 2;
  config.faults.backend_fault_rate = 1.0;
  config.retry.max_attempts = 1;
  config.degrade_epsilon = 0.5;
  config.epsilon_budget = 4.0;
  const StatQuery query = Parse("SELECT COUNT(*) FROM t WHERE height < 175");
  {
    auto service = QueryService::Create(PaperDataset2(), config, &wal);
    ASSERT_TRUE(service.ok());
    ASSERT_EQ(service->Submit(query).tier, AnswerTier::kDpDegraded);
    ASSERT_EQ(service->Submit(query).tier, AnswerTier::kDpDegraded);
    ASSERT_DOUBLE_EQ(service->epsilon_spent(), 1.0);
  }

  // One dashboard — registry, accountant, instruments — lives across BOTH
  // recoveries of the crash-looping service. Metric series register once;
  // each reboot only re-attaches.
  MetricsRegistry registry;
  PrivacyBudgetAccountant accountant(&registry);
  SimClock dashboard_clock;
  TraceRecorder trace(&dashboard_clock);
  auto metrics = ServiceMetrics::Create(&registry, &trace, &accountant);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  const obs::LabelSet spent_labels = {{"dimension", "respondent"},
                                      {"principal", "degraded_path"}};

  for (int recovery = 1; recovery <= 2; ++recovery) {
    auto service = QueryService::Create(PaperDataset2(), config, &wal);
    ASSERT_TRUE(service.ok()) << "recovery " << recovery;
    service->AttachInstruments(&*metrics);

    // The recovered spend is mirrored absolutely, never re-added: 1.0
    // after the first recovery AND still 1.0 after the second.
    EXPECT_DOUBLE_EQ(accountant.spent("degraded_path"), 1.0)
        << "recovery " << recovery;
    EXPECT_DOUBLE_EQ(GaugeValue(registry.Snapshot(),
                                "tripriv_privacy_epsilon_spent", spent_labels),
                     1.0)
        << "recovery " << recovery;
    service->AttachInstruments(nullptr);
  }
}

TEST(WalReplayIdempotenceTest, EpochGaugesSurviveDoubleRecovery) {
  MemWalIo wal;
  EpochStore store;
  {
    auto db = EpochedDatabase::Create(MakeClinicalTrial(20, 5),
                                      EpochTestConfig(), &wal, &store);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db->SubmitMutation(RowMutation::Delete(0)).ok());
    ASSERT_TRUE(db->Flip().ok());
    ASSERT_TRUE(db->SubmitMutation(RowMutation::Delete(1)).ok());
    ASSERT_TRUE(db->Flip().ok());
  }

  MetricsRegistry registry;
  auto metrics = obs::EpochMetrics::Create(&registry);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();

  for (int recovery = 1; recovery <= 2; ++recovery) {
    auto db = EpochedDatabase::Create(MakeClinicalTrial(20, 5),
                                      EpochTestConfig(), &wal, &store);
    ASSERT_TRUE(db.ok()) << "recovery " << recovery;
    EXPECT_EQ(db->epoch(), 3u) << "recovery " << recovery;
    db->AttachInstruments(&*metrics);
    // Gauges are absolute: double recovery reads 3, not 6.
    EXPECT_DOUBLE_EQ(
        GaugeValue(registry.Snapshot(), "tripriv_epoch_current", {}), 3.0)
        << "recovery " << recovery;
  }
}

}  // namespace
}  // namespace tripriv
