// The adversary harness: closed-form anchors, the risk.cc reconciliation
// (satellite S1), and the fingerprint codec's detection guarantees.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>

#include "attack/equivocation.h"
#include "attack/fingerprint.h"
#include "attack/linkage.h"
#include "attack/nussbaum.h"
#include "attack/profiling.h"
#include "attack/scoreboard.h"
#include "sdc/microaggregation.h"
#include "sdc/noise.h"
#include "sdc/risk.h"
#include "table/datasets.h"

namespace tripriv {
namespace attack {
namespace {

std::vector<size_t> NumericQis(const DataTable& t) {
  std::vector<size_t> out;
  for (size_t c : t.schema().QuasiIdentifierIndices()) {
    if (t.schema().attribute(c).type != AttributeType::kCategorical) {
      out.push_back(c);
    }
  }
  return out;
}

// --- equivocation closed forms (satellite S3) ---------------------------

TEST(EquivocationTest, UniformPriorIsLogN) {
  EXPECT_DOUBLE_EQ(UniformBits(1), 0.0);
  EXPECT_DOUBLE_EQ(UniformBits(2), 1.0);
  EXPECT_DOUBLE_EQ(UniformBits(1024), 10.0);
  // EntropyBits of a uniform histogram must agree exactly.
  EXPECT_DOUBLE_EQ(EntropyBits({1.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(EntropyBits(std::vector<double>(8, 3.5)), 3.0);
}

TEST(EquivocationTest, DeterministicReleaseIsZero) {
  EXPECT_DOUBLE_EQ(EntropyBits({42.0}), 0.0);
  EXPECT_DOUBLE_EQ(EntropyBits({0.0, 0.0, 7.0}), 0.0);  // one-hot
  EXPECT_DOUBLE_EQ(EntropyBits({}), 0.0);
  // Never the negative zero that would break byte-stable rendering.
  EXPECT_FALSE(std::signbit(EntropyBits({5.0})));
}

TEST(EquivocationTest, MeanCandidateBits) {
  // Tie sets of 1 and 4: (0 + 2) / 2.
  EXPECT_DOUBLE_EQ(MeanCandidateBits({1, 4}), 1.0);
  EXPECT_DOUBLE_EQ(MeanCandidateBits({}), 0.0);
}

// --- S1: the attack-side linkage must reconcile bitwise with sdc/risk.cc

TEST(LinkageReconciliationTest, ExactModeMatchesRiskBitwise) {
  const DataTable original = MakeCensusScale(400, 11);
  const std::vector<size_t> qis = NumericQis(original);
  auto masked = MdavMicroaggregate(original, 4, qis, nullptr);
  ASSERT_TRUE(masked.ok());

  auto risk = DistanceLinkageAttack(original, masked->table, qis);
  ASSERT_TRUE(risk.ok());

  LinkageConfig config;
  config.qi_cols = qis;
  config.block_bins = 0;  // exact mode: same scan as risk.cc
  AttackContext ctx;
  auto outcome = RunRecordLinkageAttack(original, masked->table, config, ctx);
  ASSERT_TRUE(outcome.ok());

  // Bitwise, not approximate: both sides standardize jointly, use the same
  // 1e-12 tie epsilon, and accumulate serially in row order.
  EXPECT_EQ(outcome->successes, risk->expected_correct);
  EXPECT_EQ(outcome->success_rate(), risk->correct_fraction);
  EXPECT_EQ(outcome->trials, risk->total);
  // And the drift risk.h documents: `correct` is a rounded rendering, so
  // deriving a rate from it would disagree whenever the expectation is
  // fractional. The attack side must never do that.
  EXPECT_EQ(risk->correct,
            static_cast<size_t>(std::llround(risk->expected_correct)));
}

TEST(LinkageReconciliationTest, BlockedModeNeverInflatesExactTies) {
  // On a verbatim release every link is an exact singleton tie; the blocked
  // attack must reproduce the perfect linkage, not approximate it away.
  const DataTable original = MakeCensusScale(300, 3);
  LinkageConfig config;
  config.qi_cols = NumericQis(original);
  config.block_bins = 16;
  AttackContext ctx;
  auto outcome = RunRecordLinkageAttack(original, original, config, ctx);
  ASSERT_TRUE(outcome.ok());
  EXPECT_DOUBLE_EQ(outcome->success_rate(), 1.0);
  EXPECT_DOUBLE_EQ(outcome->equivocation_bits, 0.0);
}

TEST(LinkageTest, AttributeDisclosureWindowSemantics) {
  const DataTable original = MakeCensusScale(300, 5);
  AttributeDisclosureConfig config;
  config.linkage.qi_cols = NumericQis(original);
  config.linkage.block_bins = 0;
  auto income = original.schema().IndexOf("income");
  ASSERT_TRUE(income.ok());
  config.confidential_col = *income;
  AttackContext ctx;
  // Verbatim release: every tie-set mean is the true value.
  auto outcome = RunAttributeDisclosureAttack(original, original, config, ctx);
  ASSERT_TRUE(outcome.ok());
  EXPECT_DOUBLE_EQ(outcome->success_rate(), 1.0);
}

// A NaN window passed the old `w < 0 || w > 100` check and then held no
// row, so a verbatim release scored protection 1.000.
TEST(LinkageTest, NanDisclosureWindowIsRefused) {
  const DataTable original = MakeCensusScale(2000, 5);
  AttributeDisclosureConfig config;
  config.linkage.qi_cols = NumericQis(original);
  config.linkage.block_bins = 24;
  config.confidential_col = *original.schema().IndexOf("income");
  AttackContext ctx;
  auto verbatim = RunAttributeDisclosureAttack(original, original, config, ctx);
  ASSERT_TRUE(verbatim.ok());
  EXPECT_DOUBLE_EQ(verbatim->success_rate(), 1.0);
  config.window_percent = std::nan("");
  auto refused = RunAttributeDisclosureAttack(original, original, config, ctx);
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(RunLinkageAttacks(original, original, config, ctx).status().code(),
            StatusCode::kInvalidArgument);
}

// A column index past either table's width used to reach NumericColumn's
// CHECK and abort the process.
TEST(LinkageTest, OutOfRangeColumnsAreRefused) {
  const DataTable original = MakeCensusScale(200, 5);
  const std::vector<size_t> qis = NumericQis(original);
  const size_t last = original.num_columns() - 1;
  std::vector<size_t> kept(last);
  std::iota(kept.begin(), kept.end(), size_t{0});
  const DataTable narrower = original.Project(kept);  // last column gone
  // The schema's QIs (age .. region) resolve from the original; this
  // release lacks region.
  const DataTable first_five = original.Project({0, 1, 2, 3, 4});
  std::vector<size_t> with_last = qis;
  with_last.push_back(last);
  struct Case {
    const DataTable* masked;
    std::vector<size_t> qi_cols;
    size_t conf;
    bool bad_qi;  ///< the record linkage alone refuses it too
    const char* where;
  };
  const std::vector<Case> cases = {
      {&original, {qis[0], 99}, qis[0], true, "QI 99"},
      {&narrower, with_last, qis[0], true, "QI past the release"},
      {&first_five, {}, qis[0], true, "schema QIs past the release"},
      {&original, qis, 42, false, "confidential 42"},
      {&narrower, qis, last, false, "confidential past the release"},
  };
  AttackContext ctx;
  for (const Case& c : cases) {
    AttributeDisclosureConfig config;
    config.linkage.qi_cols = c.qi_cols;
    config.linkage.block_bins = 24;
    config.confidential_col = c.conf;
    if (c.bad_qi) {
      EXPECT_EQ(RunRecordLinkageAttack(original, *c.masked, config.linkage,
                                       ctx)
                    .status()
                    .code(),
                StatusCode::kInvalidArgument)
          << c.where;
    }
    EXPECT_EQ(RunAttributeDisclosureAttack(original, *c.masked, config, ctx)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << c.where;
    EXPECT_EQ(
        RunLinkageAttacks(original, *c.masked, config, ctx).status().code(),
        StatusCode::kInvalidArgument)
        << c.where;
  }
}

// --- Nussbaum-Segal ------------------------------------------------------

TEST(NussbaumTest, MinMaxDifferencingRecoversVerbatimRelease) {
  const DataTable original = MakeCensusScale(500, 9);
  MinMaxQueryConfig config;
  config.order_col = NumericQis(original)[0];
  auto income = original.schema().IndexOf("income");
  ASSERT_TRUE(income.ok());
  config.target_col = *income;
  config.window = 5;
  AttackContext ctx;
  auto outcome = RunMinMaxQueryAttack(original, original, config, ctx);
  ASSERT_TRUE(outcome.ok());
  // Sliding-extreme differencing pins a large fraction of an unprotected
  // sequence; the paper's point is that size-restricted query interfaces
  // alone are not protection.
  EXPECT_GT(outcome->success_rate(), 0.5);
  EXPECT_EQ(outcome->trials, original.num_rows());
}

TEST(NussbaumTest, NoiseDefeatsDifferencing) {
  const DataTable original = MakeCensusScale(500, 9);
  auto income = original.schema().IndexOf("income");
  ASSERT_TRUE(income.ok());
  auto noised = AddUncorrelatedNoise(original, 1.0, {*income}, 21);
  ASSERT_TRUE(noised.ok());
  MinMaxQueryConfig config;
  config.order_col = NumericQis(original)[0];
  config.target_col = *income;
  config.window = 5;
  AttackContext ctx;
  auto clean = RunMinMaxQueryAttack(original, original, config, ctx);
  auto masked = RunMinMaxQueryAttack(original, *noised, config, ctx);
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(masked.ok());
  EXPECT_LT(masked->success_rate(), clean->success_rate());
}

TEST(NussbaumTest, BucketReconstructionOnGroupedRelease) {
  const DataTable original = MakeCensusScale(400, 13);
  auto income = original.schema().IndexOf("income");
  ASSERT_TRUE(income.ok());
  // Trivial bucketing: 4 contiguous groups of 100.
  std::vector<size_t> bucket_of_row(original.num_rows());
  for (size_t r = 0; r < bucket_of_row.size(); ++r) bucket_of_row[r] = r / 100;
  BucketReconstructionConfig config;
  config.target_col = *income;
  AttackContext ctx;
  auto outcome = RunBucketReconstructionAttack(original, original,
                                               bucket_of_row, config, ctx);
  ASSERT_TRUE(outcome.ok());
  // Rank extremes are pinned exactly on a verbatim release, so success is
  // at least 2 rows per bucket / 100.
  EXPECT_GE(outcome->success_rate(), 8.0 / 400.0);
  EXPECT_EQ(outcome->records_total, original.num_rows());
}

TEST(NussbaumTest, NanWindowAndOutOfRangeColumnsAreRefused) {
  const DataTable original = MakeCensusScale(300, 9);
  const size_t income = *original.schema().IndexOf("income");
  std::vector<size_t> kept(income);
  std::iota(kept.begin(), kept.end(), size_t{0});
  const DataTable no_income = original.Project(kept);  // income onward gone
  AttackContext ctx;
  auto minmax_code = [&](const DataTable& released,
                         const MinMaxQueryConfig& config) {
    return RunMinMaxQueryAttack(original, released, config, ctx)
        .status()
        .code();
  };
  MinMaxQueryConfig minmax;
  minmax.order_col = NumericQis(original)[0];
  minmax.target_col = income;
  ASSERT_EQ(minmax_code(original, minmax), StatusCode::kOk);
  MinMaxQueryConfig bad = minmax;
  bad.window_percent = std::nan("");
  EXPECT_EQ(minmax_code(original, bad), StatusCode::kInvalidArgument);
  bad = minmax;
  bad.order_col = 99;
  EXPECT_EQ(minmax_code(original, bad), StatusCode::kInvalidArgument);
  bad = minmax;
  bad.target_col = 99;
  EXPECT_EQ(minmax_code(original, bad), StatusCode::kInvalidArgument);
  EXPECT_EQ(minmax_code(no_income, minmax), StatusCode::kInvalidArgument);

  std::vector<size_t> bucket_of_row(original.num_rows());
  for (size_t r = 0; r < bucket_of_row.size(); ++r) bucket_of_row[r] = r / 10;
  auto bucket_code = [&](const DataTable& released,
                         const BucketReconstructionConfig& config) {
    return RunBucketReconstructionAttack(original, released, bucket_of_row,
                                         config, ctx)
        .status()
        .code();
  };
  BucketReconstructionConfig bucket;
  bucket.target_col = income;
  ASSERT_EQ(bucket_code(original, bucket), StatusCode::kOk);
  BucketReconstructionConfig bad_bucket = bucket;
  bad_bucket.window_percent = std::nan("");
  EXPECT_EQ(bucket_code(original, bad_bucket), StatusCode::kInvalidArgument);
  bad_bucket = bucket;
  bad_bucket.target_col = 99;
  EXPECT_EQ(bucket_code(original, bad_bucket), StatusCode::kInvalidArgument);
  EXPECT_EQ(bucket_code(no_income, bucket), StatusCode::kInvalidArgument);
}

// --- fingerprinting ------------------------------------------------------

TEST(FingerprintTest, CodewordsDifferAcrossSameParityRecipients) {
  // Regression: raw FNV-1a's low bit is a parity of input-byte low bits, so
  // without a finalizer recipients 0 and 2 would share every codeword bit.
  const DataTable base = MakeCensusScale(200, 7);
  FingerprintConfig config;
  config.marks = 256;
  config.num_recipients = 4;
  auto codec = FingerprintCodec::Create(base, config);
  ASSERT_TRUE(codec.ok());
  size_t differing = 0;
  for (size_t m = 0; m < config.marks; ++m) {
    if (codec->CodewordBit(0, m) != codec->CodewordBit(2, m)) ++differing;
  }
  // ~Binomial(256, 1/2); zero is the bug, and < 64 is astronomically
  // unlikely for an unbiased PRF.
  EXPECT_GT(differing, 64u);
  EXPECT_LT(differing, 192u);
}

TEST(FingerprintTest, DetectTracesSingleLeaker) {
  const DataTable base = MakeCensusScale(500, 7);
  FingerprintConfig config;
  config.marks = 1024;
  config.num_recipients = 10;
  auto codec = FingerprintCodec::Create(base, config);
  ASSERT_TRUE(codec.ok());
  auto copy = codec->Release(6);
  ASSERT_TRUE(copy.ok());
  auto detection = codec->Detect(*copy, nullptr);
  ASSERT_TRUE(detection.ok());
  EXPECT_TRUE(detection->accused);
  EXPECT_EQ(detection->recipient, 6u);
  EXPECT_DOUBLE_EQ(detection->score, 1024.0);  // perfect correlation
}

TEST(FingerprintTest, SurvivesMajorityCollusionWithFlips) {
  // The S6 gate's core claim at unit scale: 5-party majority collusion plus
  // 10% bit flips still traces a colluder on every trial.
  const DataTable base = MakeCensusScale(800, 7);
  CollusionAttackConfig config;
  config.codec.marks = 2048;
  config.codec.num_recipients = 20;
  config.colluders = 5;
  config.strategy = CollusionStrategy::kMajority;
  config.flip_fraction = 0.10;
  config.trials = 6;
  AttackContext ctx;
  auto outcome = RunCollusionAttack(base, config, ctx);
  ASSERT_TRUE(outcome.ok());
  EXPECT_DOUBLE_EQ(outcome->success_rate(), 0.0);  // adversary never wins
  EXPECT_DOUBLE_EQ(outcome->equivocation_bits, 0.0);
}

TEST(FingerprintTest, HeavyFlippingErasesTheMark) {
  // Flipping every embedded bit at 50% destroys the correlation, so the
  // detector must stay below threshold instead of framing an innocent.
  const DataTable base = MakeCensusScale(500, 7);
  CollusionAttackConfig config;
  config.codec.marks = 1024;
  config.codec.num_recipients = 12;
  config.colluders = 1;
  config.strategy = CollusionStrategy::kRandom;
  config.flip_fraction = 0.5;
  config.trials = 4;
  AttackContext ctx;
  auto outcome = RunCollusionAttack(base, config, ctx);
  ASSERT_TRUE(outcome.ok());
  // With the mark gone the adversary keeps full deniability.
  EXPECT_DOUBLE_EQ(outcome->success_rate(), 1.0);
  EXPECT_DOUBLE_EQ(outcome->equivocation_bits,
                   UniformBits(config.codec.num_recipients));
}

// A NaN flip fraction gets past an `f < 0 || f > 1` check, runs as no
// flips and reports "flip=nan".
TEST(FingerprintTest, NanFlipFractionIsRefused) {
  const DataTable base = MakeCensusScale(500, 7);
  CollusionAttackConfig config;
  config.codec.marks = 1024;
  config.codec.num_recipients = 12;
  config.colluders = 1;
  config.trials = 2;
  AttackContext ctx;
  ASSERT_TRUE(RunCollusionAttack(base, config, ctx).ok());
  config.flip_fraction = std::nan("");
  EXPECT_EQ(RunCollusionAttack(base, config, ctx).status().code(),
            StatusCode::kInvalidArgument);
}

// --- profiling / selection view ------------------------------------------

TEST(ProfilingTest, UnblindedLogDisclosesEverything) {
  std::vector<traffic::AccessEvent> trail;
  for (uint64_t i = 0; i < 30; ++i) {
    traffic::AccessEvent e;
    e.principal = i % 3;
    e.query_key = 100 + i % 7;
    trail.push_back(e);
  }
  AttackContext ctx;
  auto outcome = RunQueryLogProfilingAttack(trail, {}, ctx);
  ASSERT_TRUE(outcome.ok());
  EXPECT_DOUBLE_EQ(outcome->success_rate(), 1.0);
  EXPECT_DOUBLE_EQ(outcome->equivocation_bits, 0.0);
  EXPECT_EQ(outcome->trials, trail.size());
}

TEST(ProfilingTest, BlindedLogScoresAtTheUniformPrior) {
  std::vector<traffic::AccessEvent> trail;
  for (uint64_t i = 0; i < 32; ++i) {
    traffic::AccessEvent e;
    e.principal = i % 4;
    e.query_key = i % 8;  // 8 distinct keys
    trail.push_back(e);
  }
  ProfilingConfig config;
  config.pir_blinded = true;
  AttackContext ctx;
  auto outcome = RunQueryLogProfilingAttack(trail, config, ctx);
  ASSERT_TRUE(outcome.ok());
  EXPECT_DOUBLE_EQ(outcome->success_rate(), 1.0 / 8.0);
  EXPECT_DOUBLE_EQ(outcome->equivocation_bits, 3.0);  // log2(8)
  EXPECT_DOUBLE_EQ(outcome->prior_bits, 3.0);
}

TEST(SelectionViewTest, DirectReadsExposeTheTarget) {
  SelectionViewConfig config;
  config.num_records = 64;
  config.trials = 16;
  config.pir = false;
  AttackContext ctx;
  auto outcome = RunSelectionViewGuessingAttack(config, ctx);
  ASSERT_TRUE(outcome.ok());
  EXPECT_DOUBLE_EQ(outcome->success_rate(), 1.0);
  EXPECT_DOUBLE_EQ(outcome->equivocation_bits, 0.0);
}

TEST(SelectionViewTest, PirViewIsUniform) {
  SelectionViewConfig config;
  config.num_records = 64;
  config.trials = 32;
  config.pir = true;
  AttackContext ctx;
  auto outcome = RunSelectionViewGuessingAttack(config, ctx);
  ASSERT_TRUE(outcome.ok());
  // One replica's view is marginally uniform; success collapses toward
  // chance (1/64) and the posterior stays at the full prior.
  EXPECT_LT(outcome->success_rate(), 0.2);
  EXPECT_DOUBLE_EQ(outcome->equivocation_bits, 6.0);
}

// --- scoreboard ----------------------------------------------------------

TEST(ScoreboardTest, EmptyCellFailsClosed) {
  Scoreboard board;
  for (TechnologyClass t : kScoreboardTechnologies) {
    for (Dimension d : kAllDimensions) {
      EXPECT_EQ(board.row(t).MeasuredGrade(d), Grade::kNone);
    }
  }
}

TEST(ScoreboardTest, AddRoutesByDimension) {
  Scoreboard board;
  AttackOutcome outcome;
  outcome.attack = "probe";
  outcome.dimension = Dimension::kOwner;
  outcome.trials = 10;
  outcome.successes = 1.0;
  board.Add(TechnologyClass::kPir, outcome);
  EXPECT_EQ(board.row(TechnologyClass::kPir).cells[1].outcomes.size(), 1u);
  EXPECT_EQ(board.row(TechnologyClass::kPir).MeasuredGrade(Dimension::kOwner),
            Grade::kHigh);  // 1 - 0.1 = 0.9
  EXPECT_EQ(board.row(TechnologyClass::kPir).MeasuredGrade(Dimension::kUser),
            Grade::kNone);  // untouched cell stays fail-closed
}

// A NaN keep probability must be refused before randomized response hands
// it to Rng::Bernoulli, whose CHECK would abort the whole run.
TEST(ScoreboardTest, NanKeepProbabilityIsRefused) {
  EmpiricalTable2Config config = ClinicalTable2Config(21);
  config.rr_keep_probability = std::nan("");
  EXPECT_EQ(RunEmpiricalTable2(MakeExtendedTrial(120, 59), config, {})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ScoreboardTest, EmpiricalTable2SmallRunAgreesOnAnchors) {
  EmpiricalTable2Config config;
  config.rows = 1500;
  config.fingerprint_marks = 1024;
  config.fingerprint_trials = 2;
  config.traffic_windows = 8;
  config.selection_trials = 16;
  AttackContext ctx;
  auto board = RunEmpiricalTable2(config, ctx);
  ASSERT_TRUE(board.ok());
  // The anchor cells the paper's Table 2 is unambiguous about.
  EXPECT_EQ(board->row(TechnologyClass::kCryptoPpdm)
                .MeasuredGrade(Dimension::kRespondent),
            Grade::kHigh);
  EXPECT_EQ(board->row(TechnologyClass::kPir).MeasuredGrade(Dimension::kUser),
            Grade::kHigh);
  EXPECT_EQ(
      board->row(TechnologyClass::kPir).MeasuredGrade(Dimension::kRespondent),
      Grade::kNone);
  EXPECT_EQ(
      board->row(TechnologyClass::kSdc).MeasuredGrade(Dimension::kUser),
      Grade::kNone);
  // Fingerprinting: the collusion battery must not dent traceability.
  EXPECT_EQ(board->row(TechnologyClass::kFingerprinting)
                .MeasuredGrade(Dimension::kOwner),
            Grade::kHigh);
  // Rendering mentions every row and the outcome log.
  const std::string text = board->RenderText();
  EXPECT_NE(text.find("Database fingerprinting"), std::string::npos);
  EXPECT_NE(text.find("attack outcomes:"), std::string::npos);
  const std::string json = board->RenderJson();
  EXPECT_NE(json.find("\"technology\":\"SDC\""), std::string::npos);
  EXPECT_NE(json.find("\"paper_row\":false"), std::string::npos);
}

TEST(AttackOutcomeTest, ProtectionScoreClampsAndFormats) {
  AttackOutcome outcome;
  outcome.trials = 4;
  outcome.successes = 5.0;  // expectation may exceed trials transiently
  EXPECT_DOUBLE_EQ(outcome.protection_score(), 0.0);
  EXPECT_EQ(FormatFixed(-0.0), "0.000000");
  AttackOutcome empty;
  EXPECT_DOUBLE_EQ(empty.success_rate(), 0.0);
}

}  // namespace
}  // namespace attack
}  // namespace tripriv
