// Integration tests: cross-module pipelines a deployment would actually
// run, from masking through query serving and attack.

#include <cmath>

#include <gtest/gtest.h>

#include "attack/scoreboard.h"
#include "core/advisor.h"
#include "pir/aggregate.h"
#include "ppdm/decision_tree.h"
#include "querydb/tracker.h"
#include "sdc/anonymity.h"
#include "sdc/condensation.h"
#include "sdc/microaggregation.h"
#include "table/datasets.h"
#include "table/io.h"

namespace tripriv {
namespace {

TEST(PipelineTest, Section6RecipeServesCorrectPrivateAggregates) {
  // k-anonymize, serve through PIR, and check the private answers equal
  // plain execution on the same release.
  const DataTable registry = MakeExtendedTrial(120, 5);
  auto deployment = ApplySection6Recipe(registry, 4);
  ASSERT_TRUE(deployment.ok());
  std::vector<GridAxis> grid{{"age", 25, 85, 1}, {"weight", 40, 160, 1}};
  auto server = PrivateAggregateServer::Build(deployment->release, grid);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = PrivateAggregateClient::Create(192, 7);
  ASSERT_TRUE(client.ok());
  for (int64_t threshold : {50, 65, 80}) {
    Predicate p = Predicate::Compare("age", CompareOp::kLt, Value(threshold));
    auto private_count = client->Count(*server, p);
    ASSERT_TRUE(private_count.ok());
    auto plain = p.MatchingRows(deployment->release);
    ASSERT_TRUE(plain.ok());
    EXPECT_EQ(*private_count, plain->size()) << threshold;
  }
}

TEST(PipelineTest, TrackerCannotIsolateAfterMasking) {
  // The full respondent-privacy story: the tracker defeats query controls
  // on raw data, but after k-anonymization there is no size-1 target set
  // to isolate in the first place.
  DataTable raw = MakeClinicalTrial(80, 9);
  ASSERT_TRUE(raw.AppendRow({Value(160), Value(110), Value(146), Value("N")})
                  .ok());
  const Predicate target = Predicate::And(
      Predicate::Compare("height", CompareOp::kLt, Value(165)),
      Predicate::Compare("weight", CompareOp::kGt, Value(105)));

  ProtectionConfig config;
  config.mode = ProtectionMode::kQuerySetSize;
  config.min_query_set_size = 3;

  // On raw data: the attack recovers the secret value exactly.
  StatDatabase raw_db(raw, config);
  auto tracker = FindTracker(&raw_db, "height", 140, 205, 24);
  ASSERT_TRUE(tracker.has_value());
  auto raw_attack = TrackerAttack(&raw_db, target, "blood_pressure", *tracker);
  ASSERT_TRUE(raw_attack.ok());
  ASSERT_TRUE(raw_attack->succeeded);
  EXPECT_DOUBLE_EQ(raw_attack->inferred_count, 1.0);
  EXPECT_DOUBLE_EQ(raw_attack->inferred_sum, 146.0);

  // On the 3-anonymized release: the tracker still works arithmetically,
  // but the inferred count is 0 or >= 3 — no respondent is isolated.
  auto masked = MdavMicroaggregate(raw, 3);
  ASSERT_TRUE(masked.ok());
  StatDatabase masked_db(masked->table, config);
  auto masked_tracker = FindTracker(&masked_db, "height", 140, 205, 24);
  if (masked_tracker.has_value()) {
    auto masked_attack =
        TrackerAttack(&masked_db, target, "blood_pressure", *masked_tracker);
    ASSERT_TRUE(masked_attack.ok());
    if (masked_attack->succeeded) {
      EXPECT_TRUE(masked_attack->inferred_count < 0.5 ||
                  masked_attack->inferred_count >= 2.5)
          << masked_attack->inferred_count;
    }
  }
}

TEST(PipelineTest, CondensedDataStillTrainsUsableClassifier) {
  // The utility claim behind [1]: condensation preserves enough structure
  // for downstream mining. Train on condensed, test on original.
  DataTable train = MakeClassification(2500, 2, 13);
  DataTable test = MakeClassification(600, 2, 14);
  auto condensed = Condense(train, 10, {0, 1, 2}, 15);
  ASSERT_TRUE(condensed.ok());
  auto tree_orig = DecisionTree::Train(train, "group");
  auto tree_cond = DecisionTree::Train(condensed->table, "group");
  ASSERT_TRUE(tree_orig.ok() && tree_cond.ok());
  const double acc_orig = *tree_orig->Accuracy(test);
  const double acc_cond = *tree_cond->Accuracy(test);
  EXPECT_GT(acc_cond, 0.75);
  EXPECT_GT(acc_cond, acc_orig - 0.2);
}

TEST(PipelineTest, MaskedReleaseSurvivesCsvRoundTrip) {
  // Publish path: mask -> serialize -> reload -> verify guarantees hold on
  // what was actually shipped.
  DataTable data = MakeExtendedTrial(90, 17);
  auto masked = MdavMicroaggregate(data, 5);
  ASSERT_TRUE(masked.ok());
  const std::string csv = TableToCsv(masked->table);
  auto reloaded = TableFromCsv(masked->table.schema(), csv);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(*reloaded, masked->table);
  EXPECT_GE(AnonymityLevel(*reloaded), 5u);
}

TEST(PipelineTest, AdvisorRecommendationsSurviveEvaluation) {
  // What the advisor recommends for "all three dimensions" must actually
  // measure >= medium on every dimension with the scoreboard's attacks.
  PrivacyRequirements all;
  all.respondent = all.owner = all.user = true;
  auto rec = RecommendTechnology(all);
  ASSERT_TRUE(rec.ok());
  attack::EmpiricalTable2Config config = attack::ClinicalTable2Config(7);
  config.selection_trials = 12;
  auto board =
      attack::RunEmpiricalTable2(MakeExtendedTrial(250, 19), config, {});
  ASSERT_TRUE(board.ok()) << board.status().ToString();
  const attack::ScoreboardRow& row = board->row(rec->technology);
  for (Dimension d : kAllDimensions) {
    EXPECT_GE(row.cells[static_cast<size_t>(d)].score(), 0.4)
        << DimensionToString(d) << " under "
        << TechnologyClassToString(rec->technology);
  }
}

}  // namespace
}  // namespace tripriv
