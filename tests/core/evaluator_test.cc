// Tests for the empirical Table 2 scoring engine on the clinical trial
// (attack/scoreboard.h, clinical preset).

#include <gtest/gtest.h>

#include "attack/scoreboard.h"
#include "table/datasets.h"

namespace tripriv {
namespace {

using attack::ScoreboardRow;

attack::EmpiricalTable2Config FastConfig() {
  attack::EmpiricalTable2Config config = attack::ClinicalTable2Config(7);
  config.selection_trials = 16;
  return config;
}

double Score(const ScoreboardRow& row, Dimension d) {
  return row.cells[static_cast<size_t>(d)].score();
}

class EvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto board = attack::RunEmpiricalTable2(MakeExtendedTrial(300, 11),
                                            FastConfig(), {});
    ASSERT_TRUE(board.ok()) << board.status().ToString();
    board_ = std::move(*board);
  }
  const ScoreboardRow& Row(TechnologyClass t) const { return board_.row(t); }

  attack::Scoreboard board_;
};

TEST_F(EvaluatorTest, ScoresAreInRange) {
  for (const ScoreboardRow& row : board_.rows()) {
    for (Dimension d : kAllDimensions) {
      const double s = Score(row, d);
      EXPECT_GE(s, 0.0) << TechnologyClassToString(row.technology);
      EXPECT_LE(s, 1.0) << TechnologyClassToString(row.technology);
    }
  }
}

TEST_F(EvaluatorTest, PirAloneProtectsOnlyUsers) {
  const ScoreboardRow& row = Row(TechnologyClass::kPir);
  EXPECT_EQ(row.MeasuredGrade(Dimension::kRespondent), Grade::kNone);
  EXPECT_EQ(row.MeasuredGrade(Dimension::kOwner), Grade::kNone);
  EXPECT_EQ(row.MeasuredGrade(Dimension::kUser), Grade::kHigh);
}

TEST_F(EvaluatorTest, CryptoPpdmProtectsOwnersNotUsers) {
  const ScoreboardRow& row = Row(TechnologyClass::kCryptoPpdm);
  EXPECT_EQ(row.MeasuredGrade(Dimension::kOwner), Grade::kHigh);
  EXPECT_EQ(row.MeasuredGrade(Dimension::kRespondent), Grade::kHigh);
  EXPECT_EQ(row.MeasuredGrade(Dimension::kUser), Grade::kNone);
}

TEST_F(EvaluatorTest, SdcRespondentBeatsItsOwner) {
  // SDC masks the quasi-identifiers but publishes exact confidentials:
  // respondent protection must exceed owner protection (Table 2's
  // medium-high vs medium).
  const ScoreboardRow& row = Row(TechnologyClass::kSdc);
  EXPECT_GT(Score(row, Dimension::kRespondent), Score(row, Dimension::kOwner));
  EXPECT_EQ(row.MeasuredGrade(Dimension::kUser), Grade::kNone);
}

TEST_F(EvaluatorTest, PpdmOwnerBeatsSdcOwner) {
  // PPDM perturbs everything (including confidentials): its owner privacy
  // must exceed SDC's (Table 2's medium-high vs medium).
  EXPECT_GT(Score(Row(TechnologyClass::kUseSpecificNonCryptoPpdm),
                  Dimension::kOwner),
            Score(Row(TechnologyClass::kSdc), Dimension::kOwner));
}

TEST_F(EvaluatorTest, AddingPirOnlyChangesUserDimension) {
  const ScoreboardRow& base = Row(TechnologyClass::kSdc);
  const ScoreboardRow& with_pir = Row(TechnologyClass::kSdcPlusPir);
  EXPECT_DOUBLE_EQ(Score(base, Dimension::kRespondent),
                   Score(with_pir, Dimension::kRespondent));
  EXPECT_DOUBLE_EQ(Score(base, Dimension::kOwner),
                   Score(with_pir, Dimension::kOwner));
  EXPECT_LT(Score(base, Dimension::kUser), Score(with_pir, Dimension::kUser));
  EXPECT_EQ(with_pir.MeasuredGrade(Dimension::kUser), Grade::kHigh);
}

TEST_F(EvaluatorTest, UseSpecificPirGivesMediumUserPrivacy) {
  EXPECT_EQ(Row(TechnologyClass::kUseSpecificNonCryptoPpdmPlusPir)
                .MeasuredGrade(Dimension::kUser),
            Grade::kMedium);
}

TEST_F(EvaluatorTest, AllRowsAgreeWithPaperWithinOneBand) {
  // The headline Table 2 reproduction: every measured grade within one band
  // of the paper's claim, on the paper's eight rows and fingerprinting.
  ASSERT_EQ(board_.rows().size(), 9u);
  for (const ScoreboardRow& row : board_.rows()) {
    for (Dimension d : kAllDimensions) {
      EXPECT_TRUE(GradesAgree(row.ClaimedGrade(d), row.MeasuredGrade(d)))
          << TechnologyClassToString(row.technology) << " / "
          << DimensionToString(d) << ": measured "
          << GradeToString(row.MeasuredGrade(d)) << " (" << Score(row, d)
          << "), paper claims " << GradeToString(row.ClaimedGrade(d));
    }
  }
}

TEST_F(EvaluatorTest, ScoreboardRendersAllRows) {
  const std::string text = board_.RenderText();
  for (TechnologyClass t : kScoreboardTechnologies) {
    EXPECT_NE(text.find(TechnologyClassToString(t)), std::string::npos);
  }
  EXPECT_NE(text.find("measured vs paper"), std::string::npos);
}

TEST(EvaluatorEdgeTest, TinyTableRejected) {
  auto board = attack::RunEmpiricalTable2(
      MakeExtendedTrial(5, 1), attack::ClinicalTable2Config(7), {});
  ASSERT_FALSE(board.ok());
  EXPECT_EQ(board.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EvaluatorEdgeTest, SchemaWithoutNumericTargetsRejected) {
  // The trial with one role demoted: without a numeric quasi-identifier
  // there is nothing to link on; without a numeric confidential attribute
  // there is nothing to disclose. Both refuse before deploying anything.
  const DataTable trial = MakeExtendedTrial(40, 3);
  auto demote = [&](AttributeRole role) {
    std::vector<Attribute> attrs = trial.schema().attributes();
    for (Attribute& attr : attrs) {
      if (attr.role == role && attr.type != AttributeType::kCategorical) {
        attr.role = AttributeRole::kNonConfidential;
      }
    }
    DataTable table((Schema(std::move(attrs))));
    for (size_t r = 0; r < trial.num_rows(); ++r) {
      EXPECT_TRUE(table.AppendRow(trial.row(r)).ok());
    }
    return table;
  };
  for (AttributeRole role :
       {AttributeRole::kQuasiIdentifier, AttributeRole::kConfidential}) {
    auto board = attack::RunEmpiricalTable2(
        demote(role), attack::ClinicalTable2Config(7), {});
    ASSERT_FALSE(board.ok());
    EXPECT_EQ(board.status().code(), StatusCode::kInvalidArgument)
        << board.status().ToString();
  }
}

}  // namespace
}  // namespace tripriv
