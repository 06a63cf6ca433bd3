// SLO gate over the million-principal traffic mixes.
//
// Runs every named TrafficProfile mix — steady, diurnal, bursty, 100x
// flood, slow loris, and everything-at-once — through the full simulator
// (generator -> fair scheduler -> BatchExecutor -> QueryService), reads the
// per-class latency histograms back through obs::SloGate, and verdicts each
// mix against declared p50/p99 targets. Two properties gate the exit code:
//
//   1. SLO: every class inside its latency targets, in every mix. The
//      adversarial mixes are the point — the flood and loris tenants sit in
//      the "abusive" class with a loose budget, while interactive/batch/
//      analytics must hold the same tight targets they meet when unloaded.
//   2. Bounded harm: no overload, queue-full, or deadline shed ever lands
//      on a well-behaved class; abusers absorb their own overflow as typed
//      refusals.
//
// A nonzero exit is a regression signal CI treats like a failing test. The
// simulator is deterministic, so a verdict flip is a real behavior change,
// never run-to-run noise.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/instruments.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "service/traffic/simulator.h"
#include "service/traffic/traffic_profile.h"

namespace tripriv {
namespace {

using traffic::RunTrafficSimulation;
using traffic::SimulationReport;
using traffic::SimulatorConfig;
using traffic::TrafficProfile;

struct Mix {
  const char* name;
  TrafficProfile profile;
};

// Latency targets in sim ticks. Well-behaved classes hold the same bar in
// every mix, flood included; the abusive class only promises "eventually".
std::vector<obs::SloTarget> Targets() {
  return {
      {"interactive", /*p50=*/64, /*p99=*/256},
      {"batch", /*p50=*/128, /*p99=*/512},
      {"analytics", /*p50=*/256, /*p99=*/1024},
      {"abusive", /*p50=*/65536, /*p99=*/65536},
      {"unattributed", /*p50=*/1, /*p99=*/1},  // no traffic: vacuous
  };
}

SimulatorConfig MixConfig(const TrafficProfile& profile) {
  SimulatorConfig config;
  config.profile = profile;
  // Overload-prone tuning (same as the fairness suite): the abusive queue
  // is deep enough that a flood must cross the global watermark, proving
  // the overload shed path picks its victims by fair share.
  config.scheduler.high_watermark = 128;
  config.scheduler.by_class[obs::kClassAbusive].queue_capacity = 512;
  config.num_windows = 48;
  config.drain_windows = 8;
  config.table_rows = 128;
  return config;
}

bool BoundedHarmHolds(const SimulationReport& report) {
  const uint8_t kWellBehaved[] = {obs::kClassInteractive, obs::kClassBatch,
                                  obs::kClassAnalytics};
  for (uint8_t cls : kWellBehaved) {
    const traffic::ClassTotals& totals = report.by_class[cls];
    if (totals.shed_overload != 0 || totals.shed_queue_full != 0 ||
        totals.shed_deadline != 0) {
      return false;
    }
  }
  return true;
}

void PrintTotals(const SimulationReport& report) {
  std::printf("  %-13s %9s %8s %11s %9s %9s\n", "class", "arrivals", "served",
              "queue_full", "overload", "deadline");
  for (uint8_t cls = 0; cls < obs::kNumTenantClasses; ++cls) {
    const traffic::ClassTotals& t = report.by_class[cls];
    if (t.arrivals == 0) continue;
    std::printf("  %-13s %9llu %8llu %11llu %9llu %9llu\n",
                obs::TenantClassLabel(cls),
                static_cast<unsigned long long>(t.arrivals),
                static_cast<unsigned long long>(t.served),
                static_cast<unsigned long long>(t.shed_queue_full),
                static_cast<unsigned long long>(t.shed_overload),
                static_cast<unsigned long long>(t.shed_deadline));
  }
}

}  // namespace
}  // namespace tripriv

int main() {
  using namespace tripriv;
  std::printf("=== TriPriv bench: traffic SLO gate ===\n");

  const Mix mixes[] = {
      {"steady", TrafficProfile::Steady(1)},
      {"diurnal", TrafficProfile::Diurnal(1)},
      {"bursty", TrafficProfile::Bursty(1)},
      {"flood_100x", TrafficProfile::Flood(1)},
      {"slow_loris", TrafficProfile::SlowLoris(1)},
      {"mixed", TrafficProfile::Mixed(1)},
  };

  bool all_ok = true;
  for (const Mix& mix : mixes) {
    obs::MetricsRegistry registry;
    auto report = RunTrafficSimulation(MixConfig(mix.profile), /*pool=*/nullptr,
                                       &registry);
    if (!report.ok()) {
      std::printf("\n[%s] simulation failed: %s\n", mix.name,
                  report.status().ToString().c_str());
      all_ok = false;
      continue;
    }
    std::printf("\n[%s] %llu principals, %llu arrivals, digest %016llx\n",
                mix.name,
                static_cast<unsigned long long>(mix.profile.num_principals),
                static_cast<unsigned long long>(report->total_arrivals()),
                static_cast<unsigned long long>(report->scheduler_digest));
    PrintTotals(*report);

    const bool harm_ok = BoundedHarmHolds(*report);
    std::printf("  bounded harm: %s\n", harm_ok ? "PASS" : "VIOLATED");
    all_ok = all_ok && harm_ok;

    auto slo = obs::SloGate().Evaluate(registry.Snapshot(), Targets());
    if (!slo.ok()) {
      std::printf("  slo gate error: %s\n", slo.status().ToString().c_str());
      all_ok = false;
      continue;
    }
    std::printf("%s", obs::RenderSloReport(*slo).c_str());
    all_ok = all_ok && slo->ok;
  }

  std::printf("\noverall: %s\n", all_ok ? "PASS" : "FAIL");
  return all_ok ? 0 : 1;
}
