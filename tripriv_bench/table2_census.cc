// table2_census: the census-scale empirical Table 2, one full scoreboard
// pass per op.
//
// Set-up is a warm-up pass at 1/5 scale (pool start, allocator growth,
// first-touch faults), repeated. Each timed pass must render JSON
// byte-identical to the run's first pass. The traced run times each public
// entry point the pass composes standalone, with the config's knobs, on the
// same census table.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>

#include "attack/fingerprint.h"
#include "attack/linkage.h"
#include "attack/nussbaum.h"
#include "attack/profiling.h"
#include "attack/scoreboard.h"
#include "harness.h"
#include "sdc/mondrian.h"
#include "sdc/noise.h"
#include "sdc/partitioned_mdav.h"
#include "service/traffic/simulator.h"
#include "table/datasets.h"
#include "util/thread_pool.h"

namespace tripriv_bench {
namespace {

namespace attack = tripriv::attack;
using tripriv::AttributeType;
using tripriv::DataTable;

constexpr size_t kSetupRepeats = 5;

/// Mondrian needs every QI numeric: promote numeric columns to QI and
/// demote categorical QIs, as the scoreboard's generic-PPDM deployment does.
DataTable MondrianInput(const DataTable& original) {
  std::vector<tripriv::Attribute> attrs = original.schema().attributes();
  for (tripriv::Attribute& attr : attrs) {
    if (attr.type == AttributeType::kCategorical) {
      if (attr.role == tripriv::AttributeRole::kQuasiIdentifier) {
        attr.role = tripriv::AttributeRole::kNonConfidential;
      }
    } else {
      attr.role = tripriv::AttributeRole::kQuasiIdentifier;
    }
  }
  DataTable view((tripriv::Schema(std::move(attrs))));
  for (size_t r = 0; r < original.num_rows(); ++r) {
    Require(view.AppendRow(original.row(r)), "AppendRow");
  }
  return view;
}

/// Times every entry point a pass composes, standalone, once each; returns
/// the summed time (for trace.coverage).
int64_t ReplayEntryPoints(const attack::EmpiricalTable2Config& config,
                          const attack::AttackContext& ctx, Tracer* tracer,
                          uint64_t parent, Report* report) {
  const DataTable original =
      tripriv::MakeCensusScale(config.rows, config.seed);
  std::vector<size_t> qi_cols;
  for (size_t c : original.schema().QuasiIdentifierIndices()) {
    if (original.schema().attribute(c).type != AttributeType::kCategorical) {
      qi_cols.push_back(c);
    }
  }
  std::vector<size_t> numeric;
  for (size_t c = 0; c < original.schema().size(); ++c) {
    if (original.schema().attribute(c).type != AttributeType::kCategorical) {
      numeric.push_back(c);
    }
  }
  const size_t income = *original.schema().IndexOf("income");
  attack::LinkageConfig blocked;
  blocked.qi_cols = qi_cols;
  blocked.block_bins = config.linkage_block_bins;

  auto ms = [](int64_t ns) { return static_cast<double>(ns) * 1e-6; };
  std::optional<tripriv::MicroaggregationResult> sdc;
  const int64_t pmdav = tracer->Time("sdc.partitioned_mdav", parent, [&] {
    auto r = tripriv::PartitionedMdav(original, config.sdc_k, qi_cols, ctx.pool);
    Require(r, "PartitionedMdav");
    sdc.emplace(std::move(r).value());
  }, true);
  const DataTable mondrian_input = MondrianInput(original);
  std::optional<tripriv::MondrianResult> mondrian;
  const int64_t mond = tracer->Time("sdc.mondrian", parent, [&] {
    auto r = tripriv::MondrianAnonymize(mondrian_input, config.mondrian_k);
    Require(r, "MondrianAnonymize");
    mondrian.emplace(std::move(r).value());
  }, true);
  const int64_t linkage = tracer->Time("attack.linkage", parent, [&] {
    Require(attack::RunRecordLinkageAttack(original, sdc->table, blocked, ctx),
            "RunRecordLinkageAttack");
  }, true);
  attack::AttributeDisclosureConfig disclosure;
  disclosure.linkage = blocked;
  disclosure.confidential_col = income;
  disclosure.window_percent = config.disclosure_window_percent;
  const int64_t disc = tracer->Time("attack.disclosure", parent, [&] {
    Require(attack::RunAttributeDisclosureAttack(original, sdc->table,
                                                 disclosure, ctx),
            "RunAttributeDisclosureAttack");
  }, true);
  auto noise = tripriv::AddUncorrelatedNoise(original, config.noise_alpha,
                                             numeric, config.seed);
  Require(noise, "AddUncorrelatedNoise");
  attack::MinMaxQueryConfig minmax;
  minmax.order_col = qi_cols[0];
  minmax.target_col = income;
  minmax.window = config.minmax_window;
  minmax.window_percent = config.disclosure_window_percent;
  const int64_t mm = tracer->Time("attack.minmax", parent, [&] {
    Require(attack::RunMinMaxQueryAttack(original, *noise, minmax, ctx),
            "RunMinMaxQueryAttack");
  }, true);
  attack::BucketReconstructionConfig bucket;
  bucket.target_col = income;
  bucket.window_percent = config.disclosure_window_percent;
  const int64_t buck = tracer->Time("attack.bucket", parent, [&] {
    Require(attack::RunBucketReconstructionAttack(
                original, mondrian->table, mondrian->group_of_row, bucket, ctx),
            "RunBucketReconstructionAttack");
  }, true);
  attack::CollusionAttackConfig collusion;
  collusion.codec.marks = config.fingerprint_marks;
  collusion.codec.num_recipients = config.fingerprint_recipients;
  collusion.codec.owner_key = config.seed ^ 0xF1A6ull;
  collusion.colluders = config.fingerprint_colluders;
  collusion.trials = config.fingerprint_trials;
  collusion.flip_fraction = config.fingerprint_flip;
  const int64_t coll = tracer->Time("attack.collusion", parent, [&] {
    Require(attack::RunCollusionAttack(original, collusion, ctx),
            "RunCollusionAttack");
  }, true);
  tripriv::traffic::SimulatorConfig sim;
  sim.profile = tripriv::traffic::TrafficProfile::Steady(config.seed);
  sim.profile.num_principals = config.traffic_principals;
  sim.num_windows = config.traffic_windows;
  sim.record_access_trail = true;
  auto trail = tripriv::traffic::RunTrafficSimulation(sim, ctx.pool, nullptr);
  Require(trail, "RunTrafficSimulation");
  const int64_t prof = tracer->Time("attack.profiling", parent, [&] {
    Require(attack::RunQueryLogProfilingAttack(trail->access_trail,
                                               attack::ProfilingConfig{}, ctx),
            "RunQueryLogProfilingAttack");
  }, true);

  report->Value("sdc.partitioned_mdav_ms", "ms", MetricKind::kLayer, ms(pmdav));
  report->Value("sdc.mondrian_ms", "ms", MetricKind::kLayer, ms(mond));
  report->Value("attack.linkage_ms", "ms", MetricKind::kLayer, ms(linkage));
  report->Value("attack.disclosure_ms", "ms", MetricKind::kLayer, ms(disc));
  report->Value("attack.minmax_ms", "ms", MetricKind::kLayer, ms(mm));
  report->Value("attack.bucket_ms", "ms", MetricKind::kLayer, ms(buck));
  report->Value("attack.collusion_ms", "ms", MetricKind::kLayer, ms(coll));
  report->Value("attack.profiling_ms", "ms", MetricKind::kLayer, ms(prof));
  // One span per entry point, although a pass links 5 releases, runs
  // disclosure twice, collusion for 3 strategies and profiling for 2 views.
  return pmdav + mond + linkage + disc + mm + buck + coll + prof;
}

}  // namespace

void RunTable2Census(const Options& options, Tracer* tracer, Report* report) {
  tripriv::ThreadPool pool(options.workers);
  attack::AttackContext ctx;
  ctx.pool = &pool;
  attack::EmpiricalTable2Config config;
  config.rows = options.tiny ? 2000 : 50000;
  config.seed = options.seed;
  attack::EmpiricalTable2Config warmup = config;
  warmup.rows = std::max<size_t>(config.rows / 5, 2000);

  const std::vector<double> setup_s = RepeatSetup(kSetupRepeats, [&] {
    const int64_t start = NowNs();
    Require(attack::RunEmpiricalTable2(warmup, ctx), "RunEmpiricalTable2");
    return NowNs() - start;
  });

  std::string first_json;
  auto pass = [&](uint64_t parent) {
    std::optional<tripriv::Result<attack::Scoreboard>> board;
    const int64_t elapsed = tracer->Time("attack.empirical_table2", parent, [&] {
      board.emplace(attack::RunEmpiricalTable2(config, ctx));
    });
    bool ok = board->ok();
    if (ok) {
      const std::string json = (*board)->RenderJson();
      if (first_json.empty()) first_json = json;
      ++report->checks;
      ok = json == first_json;
      if (!ok) report->CheckFailed("Table 2 JSON differs from the first pass");
    }
    report->CountOp(ok);
    return elapsed;
  };

  RssProbe rss;
  const std::vector<double> pass_ms =
      RunTimedLoop(UntracedShare(options), options.trace ? 1 : 2,
                   [&](size_t i) {
                     const int64_t elapsed = pass(0);
                     rss.AfterOp(i);
                     return elapsed;
                   });
  std::vector<double> pass_s;
  for (double ms : pass_ms) pass_s.push_back(ms * 1e-3);
  report->Median("setup_s", "s", MetricKind::kEndToEnd, setup_s);
  report->Value("peak_rss_mb", "MB", MetricKind::kEndToEnd, rss.Peak());
  report->Median("op_p50_ms", "ms", MetricKind::kEndToEnd, pass_ms);
  report->Median("table2_s", "s", MetricKind::kNamed, pass_s);
  if (!options.trace) return;

  std::vector<double> coverage;
  size_t op_id = 0;
  const std::vector<double> traced_ms =
      RunTimedLoop(options.seconds - UntracedShare(options), 1, [&](size_t) {
        tracer->set_op(++op_id);
        ScopedSpan op_span(tracer, "table2_census.pass", 0);
        const int64_t real = pass(op_span.id());
        if (op_id == 1) {
          const int64_t staged =
              ReplayEntryPoints(config, ctx, tracer, op_span.id(), report);
          coverage.push_back(std::min(1.0, static_cast<double>(staged) /
                                               static_cast<double>(real)));
        }
        return real;
      });
  report->Median("trace.coverage", "ratio", MetricKind::kLayer, coverage);
  AddTraceOverhead(pass_ms, traced_ms, report);
}

}  // namespace tripriv_bench
