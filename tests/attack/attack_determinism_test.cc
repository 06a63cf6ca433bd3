// Thread-count invariance for every attack (satellite S3): each attack's
// rendered outcome — and the whole empirical Table 2 — must be
// byte-identical at 0, 1, 2, and 8 worker threads. Attacks follow the
// serial-draw -> parallel-pure -> serial-merge discipline; this suite is
// the proof, and the TSan CI leg races it.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "attack/fingerprint.h"
#include "attack/linkage.h"
#include "attack/nussbaum.h"
#include "attack/profiling.h"
#include "attack/scoreboard.h"
#include "sdc/microaggregation.h"
#include "service/traffic/simulator.h"
#include "table/datasets.h"
#include "util/checksum.h"
#include "util/thread_pool.h"

namespace tripriv {
namespace attack {
namespace {

constexpr size_t kThreadCounts[] = {0, 1, 2, 8};

/// Runs `fn(ctx)` at every thread count and asserts the rendered outcomes
/// are byte-identical.
template <typename Fn>
void ExpectThreadInvariant(Fn&& fn) {
  std::string reference;
  for (size_t threads : kThreadCounts) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    AttackContext ctx;
    ctx.pool = pool.get();
    Result<AttackOutcome> outcome = fn(ctx);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    const std::string rendered = OutcomeToJson(*outcome);
    if (reference.empty()) {
      reference = rendered;
    } else {
      EXPECT_EQ(rendered, reference) << "at " << threads << " threads";
    }
  }
}

TEST(AttackDeterminismTest, RecordLinkageExactAndBlocked) {
  const DataTable original = MakeCensusScale(600, 17);
  std::vector<size_t> qis;
  for (size_t c : original.schema().QuasiIdentifierIndices()) {
    if (original.schema().attribute(c).type != AttributeType::kCategorical) {
      qis.push_back(c);
    }
  }
  auto masked = MdavMicroaggregate(original, 5, qis, nullptr);
  ASSERT_TRUE(masked.ok());
  for (size_t bins : {size_t{0}, size_t{16}}) {
    LinkageConfig config;
    config.qi_cols = qis;
    config.block_bins = bins;
    ExpectThreadInvariant([&](const AttackContext& ctx) {
      return RunRecordLinkageAttack(original, masked->table, config, ctx);
    });
  }
}

TEST(AttackDeterminismTest, AttributeDisclosure) {
  const DataTable original = MakeCensusScale(500, 19);
  std::vector<size_t> qis;
  for (size_t c : original.schema().QuasiIdentifierIndices()) {
    if (original.schema().attribute(c).type != AttributeType::kCategorical) {
      qis.push_back(c);
    }
  }
  auto masked = MdavMicroaggregate(original, 4, qis, nullptr);
  ASSERT_TRUE(masked.ok());
  AttributeDisclosureConfig config;
  config.linkage.qi_cols = qis;
  config.linkage.block_bins = 12;
  auto income = original.schema().IndexOf("income");
  ASSERT_TRUE(income.ok());
  config.confidential_col = *income;
  ExpectThreadInvariant([&](const AttackContext& ctx) {
    return RunAttributeDisclosureAttack(original, masked->table, config, ctx);
  });
}

TEST(AttackDeterminismTest, MinMaxAndBucketReconstruction) {
  const DataTable original = MakeCensusScale(700, 23);
  auto income = original.schema().IndexOf("income");
  ASSERT_TRUE(income.ok());
  MinMaxQueryConfig minmax;
  minmax.order_col = original.schema().QuasiIdentifierIndices()[0];
  minmax.target_col = *income;
  minmax.window = 6;
  ExpectThreadInvariant([&](const AttackContext& ctx) {
    return RunMinMaxQueryAttack(original, original, minmax, ctx);
  });

  std::vector<size_t> bucket_of_row(original.num_rows());
  for (size_t r = 0; r < bucket_of_row.size(); ++r) bucket_of_row[r] = r / 50;
  BucketReconstructionConfig bucket;
  bucket.target_col = *income;
  ExpectThreadInvariant([&](const AttackContext& ctx) {
    return RunBucketReconstructionAttack(original, original, bucket_of_row,
                                         bucket, ctx);
  });
}

TEST(AttackDeterminismTest, FingerprintCollusion) {
  const DataTable base = MakeCensusScale(600, 29);
  CollusionAttackConfig config;
  config.codec.marks = 1024;
  config.codec.num_recipients = 12;
  config.colluders = 4;
  config.strategy = CollusionStrategy::kMajority;
  config.flip_fraction = 0.1;
  config.trials = 3;
  ExpectThreadInvariant([&](const AttackContext& ctx) {
    return RunCollusionAttack(base, config, ctx);
  });
}

TEST(AttackDeterminismTest, ProfilingAndSelectionView) {
  traffic::SimulatorConfig sim;
  sim.profile = traffic::TrafficProfile::Steady(31);
  sim.profile.num_principals = 64;
  sim.num_windows = 8;
  sim.record_access_trail = true;
  auto report = traffic::RunTrafficSimulation(sim, nullptr, nullptr);
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->access_trail.empty());
  for (bool blinded : {false, true}) {
    ProfilingConfig config;
    config.pir_blinded = blinded;
    ExpectThreadInvariant([&](const AttackContext& ctx) {
      return RunQueryLogProfilingAttack(report->access_trail, config, ctx);
    });
  }
  for (bool pir : {false, true}) {
    SelectionViewConfig config;
    config.num_records = 128;
    config.trials = 24;
    config.pir = pir;
    ExpectThreadInvariant([&](const AttackContext& ctx) {
      return RunSelectionViewGuessingAttack(config, ctx);
    });
  }
}

TEST(AttackDeterminismTest, EmpiricalTable2RendersByteIdentical) {
  // Two inputs: the census shorthand and a caller's table (the clinical
  // trial under its preset, exact linkage).
  EmpiricalTable2Config census;
  census.rows = 800;
  census.fingerprint_marks = 512;
  census.fingerprint_trials = 2;
  census.traffic_windows = 6;
  census.selection_trials = 8;
  EmpiricalTable2Config clinical = ClinicalTable2Config(11);
  clinical.traffic_windows = 6;
  clinical.selection_trials = 8;
  const DataTable trial = MakeExtendedTrial(200, 5);
  for (bool census_run : {true, false}) {
    std::string text_ref;
    std::string json_ref;
    for (size_t threads : kThreadCounts) {
      std::unique_ptr<ThreadPool> pool;
      if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
      AttackContext ctx;
      ctx.pool = pool.get();
      auto board = census_run ? RunEmpiricalTable2(census, ctx)
                              : RunEmpiricalTable2(trial, clinical, ctx);
      ASSERT_TRUE(board.ok()) << board.status().ToString();
      if (text_ref.empty()) {
        text_ref = board->RenderText();
        json_ref = board->RenderJson();
      } else {
        EXPECT_EQ(board->RenderText(), text_ref)
            << (census_run ? "census" : "clinical") << " at " << threads
            << " threads";
        EXPECT_EQ(board->RenderJson(), json_ref)
            << (census_run ? "census" : "clinical") << " at " << threads
            << " threads";
      }
    }
  }
}

TEST(AttackDeterminismTest, CensusBoardIsPinned) {
  // The default census board at 2 x 10^4 rows: blocked linkage at 24 bins
  // over partitioned MDAV, noise and Mondrian releases. The constants were
  // captured from the linkage core that sorted every probe's gathered
  // candidates and linked the SDC and noise releases twice; any change to a
  // tie set, a credit or a rendered figure moves them.
  EmpiricalTable2Config config;
  config.rows = 20000;
  for (size_t threads : {size_t{0}, size_t{2}}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    AttackContext ctx;
    ctx.pool = pool.get();
    auto board = RunEmpiricalTable2(config, ctx);
    ASSERT_TRUE(board.ok()) << board.status().ToString();
    const std::string json = board->RenderJson();
    const std::string text = board->RenderText();
    EXPECT_EQ(Fnv1a64(json.data(), json.size()), 0x5bc1fbaef0343e46ull)
        << "JSON at " << threads << " threads";
    EXPECT_EQ(Fnv1a64(text.data(), text.size()), 0x212877ce899c59d7ull)
        << "text at " << threads << " threads";
  }
}

}  // namespace
}  // namespace attack
}  // namespace tripriv
