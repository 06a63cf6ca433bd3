// Fairness isolation under adversarial load: a tenant flooding at ~100x
// its fair share (and a slow-loris tenant poisoning queues with doomed
// deadlines) must be absorbed entirely by typed refusals charged to the
// abuser — well-behaved tenants keep their queues, their answers, and
// their p99, within a fixed bound of the no-flood baseline.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/instruments.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "service/traffic/simulator.h"
#include "service/traffic/traffic_profile.h"

namespace tripriv {
namespace traffic {
namespace {

// The three organic classes; kClassAbusive is the flood/loris surface and
// kClassUnattributed never occurs in generated traffic.
constexpr uint8_t kWellBehaved[] = {obs::kClassInteractive, obs::kClassBatch,
                                    obs::kClassAnalytics};

// Scheduler tuned so the overload path (not just queue_full) engages: the
// abusive class gets a deep queue but the global watermark sits well below
// it, so a flood drives total backlog over the line and overload shedding
// must pick its victim.
FairSchedulerConfig OverloadProneScheduler() {
  FairSchedulerConfig scheduler;
  scheduler.high_watermark = 128;
  scheduler.by_class[obs::kClassAbusive].queue_capacity = 512;
  return scheduler;
}

SimulatorConfig BaseConfig(const TrafficProfile& profile) {
  SimulatorConfig config;
  config.profile = profile;
  config.scheduler = OverloadProneScheduler();
  config.num_windows = 48;
  config.drain_windows = 8;
  config.table_rows = 128;
  return config;
}

// p99 (bucket upper bound) of the per-class latency histogram, or 0 when
// the class saw no served traffic.
uint64_t ClassP99(const obs::MetricsSnapshot& snapshot,
                  const std::string& cls) {
  for (const auto& sample : snapshot.samples) {
    if (sample.name != "tripriv_traffic_latency_ticks") continue;
    for (const auto& [key, value] : sample.labels) {
      if (key == "class" && value == cls) {
        return obs::SloGate::QuantileUpperBound(sample.histogram, 0.99);
      }
    }
  }
  return 0;
}

TEST(TrafficFairnessTest, FloodIsAbsorbedByTypedRefusalsOnTheAbuser) {
  obs::MetricsRegistry registry;
  auto report = RunTrafficSimulation(BaseConfig(TrafficProfile::Flood(17)),
                                     /*pool=*/nullptr, &registry);
  ASSERT_TRUE(report.ok());

  const ClassTotals& abusive = report->by_class[obs::kClassAbusive];
  // The flood actually happened and the scheduler actually pushed back:
  // the abuser ate typed sheds, including the overload path.
  EXPECT_GT(abusive.arrivals, 1000u);
  EXPECT_GT(abusive.shed_queue_full + abusive.shed_overload, 0u);
  EXPECT_GT(abusive.shed_overload, 0u);

  // Bounded harm: no well-behaved request was shed to make room.
  for (uint8_t cls : kWellBehaved) {
    const ClassTotals& totals = report->by_class[cls];
    EXPECT_GT(totals.arrivals, 0u) << "class " << int(cls);
    EXPECT_EQ(totals.shed_overload, 0u) << "class " << int(cls);
    EXPECT_EQ(totals.shed_queue_full, 0u) << "class " << int(cls);
    EXPECT_EQ(totals.shed_deadline, 0u) << "class " << int(cls);
  }

  // Degradation ladder, not degradation of protection: everything served
  // left as exact, epsilon-DP, or a typed refusal — and shed + served
  // never exceeds what arrived (no request is invented or double-counted).
  for (size_t cls = 0; cls < obs::kNumTenantClasses; ++cls) {
    const ClassTotals& totals = report->by_class[cls];
    EXPECT_EQ(totals.protected_answers + totals.dp_answers + totals.refusals,
              totals.served)
        << "class " << cls;
    EXPECT_LE(totals.served + totals.shed_queue_full + totals.shed_overload +
                  totals.shed_deadline,
              totals.arrivals)
        << "class " << cls;
  }
}

TEST(TrafficFairnessTest, WellBehavedP99SurvivesTheFlood) {
  // Same scheduler, same organic seed, with and without the flooder.
  obs::MetricsRegistry baseline_registry;
  auto baseline =
      RunTrafficSimulation(BaseConfig(TrafficProfile::Steady(17)),
                           /*pool=*/nullptr, &baseline_registry);
  ASSERT_TRUE(baseline.ok());

  obs::MetricsRegistry flood_registry;
  auto flood = RunTrafficSimulation(BaseConfig(TrafficProfile::Flood(17)),
                                    /*pool=*/nullptr, &flood_registry);
  ASSERT_TRUE(flood.ok());

  // Well-behaved tenants keep getting real answers under the flood.
  for (uint8_t cls : kWellBehaved) {
    EXPECT_GT(flood->by_class[cls].served, 0u) << "class " << int(cls);
  }

  // The isolation bound: flooded p99 within a fixed additive budget of the
  // no-flood baseline for every well-behaved class. The budget is a few
  // DRR rounds of extra queueing — what weighted sharing legitimately
  // costs — not the unbounded collapse an unfair scheduler would show.
  constexpr uint64_t kP99BudgetTicks = 64;
  const obs::MetricsSnapshot base_snap = baseline_registry.Snapshot();
  const obs::MetricsSnapshot flood_snap = flood_registry.Snapshot();
  const char* names[] = {"interactive", "batch", "analytics"};
  for (const char* cls : names) {
    const uint64_t base_p99 = ClassP99(base_snap, cls);
    const uint64_t flood_p99 = ClassP99(flood_snap, cls);
    ASSERT_NE(flood_p99, UINT64_MAX) << cls << " p99 escaped the buckets";
    EXPECT_LE(flood_p99, base_p99 + kP99BudgetTicks) << cls;
  }
}

TEST(TrafficFairnessTest, SlowLorisExpiresInQueueWithoutBackendWork) {
  obs::MetricsRegistry registry;
  auto report = RunTrafficSimulation(BaseConfig(TrafficProfile::SlowLoris(23)),
                                     /*pool=*/nullptr, &registry);
  ASSERT_TRUE(report.ok());

  // Doomed deadlines die at dispatch, charged to the loris tenant's class.
  const ClassTotals& abusive = report->by_class[obs::kClassAbusive];
  EXPECT_GT(abusive.arrivals, 0u);
  EXPECT_GT(abusive.shed_deadline, 0u);
  // And the poison stays contained: nobody else loses a deadline.
  for (uint8_t cls : kWellBehaved) {
    EXPECT_EQ(report->by_class[cls].shed_deadline, 0u) << "class " << int(cls);
  }
}

}  // namespace
}  // namespace traffic
}  // namespace tripriv
