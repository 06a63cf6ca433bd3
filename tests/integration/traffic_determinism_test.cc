// The determinism contract of the million-principal simulator: one config,
// any thread count, byte-identical outcome. Scheduler decisions (FNV
// digest), WAL bytes, per-class totals, and the rendered obs export must
// all match across 0, 1, 2, and 8 worker threads — the parallel Prepare
// fan-out is pure, and everything stateful runs in one serial loop.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/instruments.h"
#include "obs/metrics.h"
#include "service/traffic/simulator.h"
#include "service/traffic/traffic_profile.h"
#include "util/thread_pool.h"

namespace tripriv {
namespace traffic {
namespace {

SimulatorConfig AdversarialMillionPrincipalConfig() {
  // The full gauntlet: diurnal wave + correlated bursts + 100x flood +
  // slow loris, over the default million-principal universe.
  SimulatorConfig config;
  config.profile = TrafficProfile::Mixed(99);
  config.scheduler.high_watermark = 128;
  config.scheduler.by_class[obs::kClassAbusive].queue_capacity = 512;
  config.num_windows = 32;
  config.drain_windows = 8;
  config.table_rows = 128;
  return config;
}

struct RunOutput {
  SimulationReport report;
  bool ok = false;
};

RunOutput RunWith(ThreadPool* pool) {
  obs::MetricsRegistry registry;
  auto report =
      RunTrafficSimulation(AdversarialMillionPrincipalConfig(), pool, &registry);
  RunOutput out;
  out.ok = report.ok();
  if (report.ok()) out.report = *std::move(report);
  return out;
}

void ExpectIdentical(const SimulationReport& a, const SimulationReport& b,
                     const char* what) {
  EXPECT_EQ(a.scheduler_digest, b.scheduler_digest) << what;
  EXPECT_EQ(a.wal_bytes, b.wal_bytes) << what;
  EXPECT_EQ(a.total_events, b.total_events) << what;
  EXPECT_EQ(a.final_tick, b.final_tick) << what;
  EXPECT_EQ(a.metrics_json, b.metrics_json) << what;
  for (size_t cls = 0; cls < obs::kNumTenantClasses; ++cls) {
    const ClassTotals& x = a.by_class[cls];
    const ClassTotals& y = b.by_class[cls];
    EXPECT_EQ(x.arrivals, y.arrivals) << what << " class " << cls;
    EXPECT_EQ(x.shed_queue_full, y.shed_queue_full) << what << " class " << cls;
    EXPECT_EQ(x.shed_overload, y.shed_overload) << what << " class " << cls;
    EXPECT_EQ(x.shed_deadline, y.shed_deadline) << what << " class " << cls;
    EXPECT_EQ(x.protected_answers, y.protected_answers)
        << what << " class " << cls;
    EXPECT_EQ(x.dp_answers, y.dp_answers) << what << " class " << cls;
    EXPECT_EQ(x.refusals, y.refusals) << what << " class " << cls;
    EXPECT_EQ(x.latency_ticks_sum, y.latency_ticks_sum)
        << what << " class " << cls;
    EXPECT_EQ(x.served, y.served) << what << " class " << cls;
  }
}

TEST(TrafficDeterminismTest, ReportIsByteIdenticalAcrossThreadCounts) {
  const RunOutput serial = RunWith(nullptr);
  ASSERT_TRUE(serial.ok);
  // The run did real work on all fronts, so the comparisons below compare
  // something: arrivals, sheds, servings, and a non-empty export.
  EXPECT_GT(serial.report.total_arrivals(), 1000u);
  EXPECT_GT(serial.report.total_scheduler_sheds(), 0u);
  EXPECT_GT(serial.report.wal_bytes, 0u);
  EXPECT_FALSE(serial.report.metrics_json.empty());

  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    ThreadPool pool(threads);
    const RunOutput parallel = RunWith(&pool);
    ASSERT_TRUE(parallel.ok) << threads << " threads";
    ExpectIdentical(serial.report, parallel.report,
                    threads == 1   ? "1 thread"
                    : threads == 2 ? "2 threads"
                                   : "8 threads");
  }
}

TEST(TrafficDeterminismTest, DistinctSeedsActuallyDiverge) {
  // Guard against a digest that is constant by accident: a different seed
  // must produce a different schedule.
  SimulatorConfig a = AdversarialMillionPrincipalConfig();
  SimulatorConfig b = AdversarialMillionPrincipalConfig();
  b.profile = TrafficProfile::Mixed(100);
  auto ra = RunTrafficSimulation(a, nullptr, nullptr);
  auto rb = RunTrafficSimulation(b, nullptr, nullptr);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_NE(ra->scheduler_digest, rb->scheduler_digest);
}

}  // namespace
}  // namespace traffic
}  // namespace tripriv
