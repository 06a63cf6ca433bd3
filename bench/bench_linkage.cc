// Record-linkage cost: what one linkage attack of the census Table 2 costs.
//
// The respondent dimension of Table 2 is measured by distance-based record
// linkage, and one census pass runs the linkage core five times, once per
// linked release (sdc, noise, Mondrian, the verbatim PIR table and the
// fingerprinted copy); the sdc and noise passes return the attribute-
// disclosure outcome too (attack::RunLinkageAttacks). Each BM_Linkage arm
// links every row of MakeCensusScale(50000, 11) against one of those
// releases, on its four numeric quasi-identifiers, in blocked mode at the
// scoreboard's 24 bins and max_radius 2; the argument is the worker count
// (0 = serial). The releases differ in how many probes find a candidate in
// their own cell: a verbatim release always does, microaggregated (sdc,
// k = 5) and Mondrian (k = 5) releases hold one point per group, and noise
// (alpha 0.5) moves every point. The BM_LinkageAttacks arms time the
// one-pass call the scoreboard makes on the sdc and noise releases (record
// linkage and attribute disclosure on income, 5% window). The exact arm
// runs sdc/risk.h's DistanceLinkageAttack, the all-pairs scan, on a
// 2000-row MDAV release.
//
// Counters: `rows` linked per iteration and the attack's `successes` are
// deterministic; items/s is probes per wall-clock second.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "attack/linkage.h"
#include "sdc/microaggregation.h"
#include "sdc/mondrian.h"
#include "sdc/noise.h"
#include "sdc/partitioned_mdav.h"
#include "sdc/risk.h"
#include "table/datasets.h"
#include "util/thread_pool.h"

namespace tripriv {
namespace {

constexpr size_t kRows = 50000;
constexpr size_t kExactRows = 2000;
constexpr uint64_t kSeed = 11;

enum class Release { kSdc, kNoise, kMondrian, kVerbatim };

std::vector<size_t> NumericQis(const DataTable& t) {
  std::vector<size_t> out;
  for (size_t c : t.schema().QuasiIdentifierIndices()) {
    if (t.schema().attribute(c).type != AttributeType::kCategorical) {
      out.push_back(c);
    }
  }
  return out;
}

std::vector<size_t> NumericCols(const DataTable& t) {
  std::vector<size_t> out;
  for (size_t c = 0; c < t.schema().size(); ++c) {
    if (t.schema().attribute(c).type != AttributeType::kCategorical) {
      out.push_back(c);
    }
  }
  return out;
}

const DataTable& Census() {
  static const DataTable table = MakeCensusScale(kRows, kSeed);
  return table;
}

DataTable BuildRelease(Release release) {
  const DataTable& original = Census();
  switch (release) {
    case Release::kSdc: {
      auto r = PartitionedMdav(original, 5, NumericQis(original), nullptr);
      TRIPRIV_CHECK(r.ok()) << r.status().ToString();
      return std::move(r->table);
    }
    case Release::kNoise: {
      auto r =
          AddUncorrelatedNoise(original, 0.5, NumericCols(original), kSeed);
      TRIPRIV_CHECK(r.ok()) << r.status().ToString();
      return std::move(*r);
    }
    case Release::kMondrian: {
      // Every numeric column recoded, the categorical QIs left alone, as the
      // scoreboard's generic-PPDM deployment runs it.
      auto r = MondrianAnonymize(original, 5, NumericCols(original));
      TRIPRIV_CHECK(r.ok()) << r.status().ToString();
      return std::move(r->table);
    }
    case Release::kVerbatim:
      return original;
  }
  return original;
}

void BM_Linkage(benchmark::State& state, Release release) {
  const DataTable& original = Census();
  const DataTable masked = BuildRelease(release);
  const size_t threads = static_cast<size_t>(state.range(0));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
  attack::AttackContext ctx;
  ctx.pool = pool.get();
  attack::LinkageConfig config;
  config.qi_cols = NumericQis(original);
  config.block_bins = 24;
  double successes = 0.0;
  for (auto _ : state) {
    auto outcome =
        attack::RunRecordLinkageAttack(original, masked, config, ctx);
    TRIPRIV_CHECK(outcome.ok()) << outcome.status().ToString();
    successes = outcome->successes;
    benchmark::DoNotOptimize(outcome);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(original.num_rows()));
  state.counters["rows"] = static_cast<double>(original.num_rows());
  state.counters["successes"] = successes;
}
BENCHMARK_CAPTURE(BM_Linkage, sdc, Release::kSdc)
    ->ArgName("threads")
    ->Arg(0)
    ->Arg(2)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Linkage, noise, Release::kNoise)
    ->ArgName("threads")
    ->Arg(0)
    ->Arg(2)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Linkage, mondrian, Release::kMondrian)
    ->ArgName("threads")
    ->Arg(0)
    ->Arg(2)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Linkage, verbatim, Release::kVerbatim)
    ->ArgName("threads")
    ->Arg(0)
    ->Arg(2)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Record linkage and attribute disclosure from one linkage pass.
void BM_LinkageAttacks(benchmark::State& state, Release release) {
  const DataTable& original = Census();
  const DataTable masked = BuildRelease(release);
  const size_t threads = static_cast<size_t>(state.range(0));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
  attack::AttackContext ctx;
  ctx.pool = pool.get();
  attack::AttributeDisclosureConfig config;
  config.linkage.qi_cols = NumericQis(original);
  config.linkage.block_bins = 24;
  config.confidential_col = *original.schema().IndexOf("income");
  double successes = 0.0;
  double disclosed = 0.0;
  for (auto _ : state) {
    auto outcomes = attack::RunLinkageAttacks(original, masked, config, ctx);
    TRIPRIV_CHECK(outcomes.ok()) << outcomes.status().ToString();
    successes = outcomes->record_linkage.successes;
    disclosed = outcomes->attribute_disclosure.successes;
    benchmark::DoNotOptimize(outcomes);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(original.num_rows()));
  state.counters["rows"] = static_cast<double>(original.num_rows());
  state.counters["successes"] = successes;
  state.counters["disclosed"] = disclosed;
}
BENCHMARK_CAPTURE(BM_LinkageAttacks, sdc, Release::kSdc)
    ->ArgName("threads")
    ->Arg(0)
    ->Arg(2)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_LinkageAttacks, noise, Release::kNoise)
    ->ArgName("threads")
    ->Arg(0)
    ->Arg(2)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The all-pairs scan: every masked row is a candidate of every probe.
void BM_LinkageExact(benchmark::State& state) {
  const DataTable original = MakeCensusScale(kExactRows, kSeed);
  const std::vector<size_t> qis = NumericQis(original);
  auto masked = MdavMicroaggregate(original, 5, qis, nullptr);
  TRIPRIV_CHECK(masked.ok()) << masked.status().ToString();
  double successes = 0.0;
  for (auto _ : state) {
    auto result = DistanceLinkageAttack(original, masked->table, qis);
    TRIPRIV_CHECK(result.ok()) << result.status().ToString();
    successes = result->expected_correct;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(original.num_rows()));
  state.counters["rows"] = static_cast<double>(original.num_rows());
  state.counters["successes"] = successes;
}
BENCHMARK(BM_LinkageExact)->Name("BM_Linkage/exact")->Unit(
    benchmark::kMillisecond);

}  // namespace
}  // namespace tripriv

BENCHMARK_MAIN();
