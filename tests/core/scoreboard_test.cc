// Remaining coverage for the clinical scoreboard's rendering, its
// crypto-PPDM row, its cell accessor and the owner-recovery attack.

#include <gtest/gtest.h>

#include <string>

#include "attack/scoreboard.h"
#include "table/datasets.h"

namespace tripriv {
namespace {

using attack::ScoreboardRow;

/// The clinical board over MakeExtendedTrial(rows, data_seed).
attack::Scoreboard RunClinical(size_t rows, uint64_t data_seed,
                               size_t selection_trials, uint64_t seed = 7) {
  attack::EmpiricalTable2Config config = attack::ClinicalTable2Config(seed);
  config.selection_trials = selection_trials;
  auto board = attack::RunEmpiricalTable2(MakeExtendedTrial(rows, data_seed),
                                          config, {});
  EXPECT_TRUE(board.ok()) << board.status().ToString();
  return board.ok() ? std::move(*board) : attack::Scoreboard();
}

size_t Occurrences(const std::string& haystack, const std::string& needle) {
  size_t count = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + 1)) {
    ++count;
  }
  return count;
}

TEST(ScoreboardTest, NoClaimsVariantOmitsPaperColumn) {
  // Fingerprinting is the one row Table 2 does not contain: both renders
  // flag it as extrapolated and no paper row carries that flag.
  const attack::Scoreboard board = RunClinical(120, 3, 8);
  const std::string text = board.RenderText();
  EXPECT_EQ(Occurrences(text, "(extrapolated row)"), 1u);
  const size_t line = text.find("Database fingerprinting");
  ASSERT_NE(line, std::string::npos);
  EXPECT_NE(text.substr(line, text.find('\n', line) - line)
                .find("(extrapolated row)"),
            std::string::npos);
  const std::string json = board.RenderJson();
  EXPECT_EQ(Occurrences(json, "\"paper_row\":false"), 1u);
  EXPECT_EQ(Occurrences(json, "\"paper_row\":true"), 8u);
  EXPECT_NE(text.find("PIR"), std::string::npos);
  EXPECT_NE(text.find("respondent"), std::string::npos);
  EXPECT_NE(text.find("user"), std::string::npos);
}

TEST(ScoreboardTest, AgreesWithPaperHelper) {
  const attack::Scoreboard board = RunClinical(150, 5, 8);
  EXPECT_TRUE(board.row(TechnologyClass::kCryptoPpdm).AgreesWithPaper());
}

TEST(ScoreboardTest, CryptoScoresDeterministicInSeed) {
  const attack::Scoreboard a = RunClinical(120, 7, 64, /*seed=*/17);
  const attack::Scoreboard b = RunClinical(120, 7, 64, /*seed=*/17);
  const ScoreboardRow& ra = a.row(TechnologyClass::kCryptoPpdm);
  const ScoreboardRow& rb = b.row(TechnologyClass::kCryptoPpdm);
  for (Dimension d : kAllDimensions) {
    const size_t i = static_cast<size_t>(d);
    EXPECT_DOUBLE_EQ(ra.cells[i].score(), rb.cells[i].score())
        << DimensionToString(d);
  }
}

TEST(ScoreboardTest, DimensionScoresAccessor) {
  // cells[] is indexed by Dimension; each cell scores 1 - success rate.
  attack::Scoreboard board;
  const double successes[] = {9.0, 8.0, 7.0};
  for (Dimension d : kAllDimensions) {
    attack::AttackOutcome outcome;
    outcome.dimension = d;
    outcome.trials = 10;
    outcome.successes = successes[static_cast<size_t>(d)];
    board.Add(TechnologyClass::kPir, outcome);
  }
  const ScoreboardRow& row = board.row(TechnologyClass::kPir);
  EXPECT_DOUBLE_EQ(row.cells[static_cast<size_t>(Dimension::kRespondent)]
                       .score(),
                   1.0 - 0.9);
  EXPECT_DOUBLE_EQ(row.cells[static_cast<size_t>(Dimension::kOwner)].score(),
                   1.0 - 0.8);
  EXPECT_DOUBLE_EQ(row.cells[static_cast<size_t>(Dimension::kUser)].score(),
                   1.0 - 0.7);
}

TEST(ScoreboardTest, MorePirTrialsSharpenUserScore) {
  // The compromised replica's guessing success is ~1/256 per trial and the
  // blinded log profiles nobody; the user score must stay high for any
  // trial count.
  for (size_t trials : {4u, 16u, 64u}) {
    const attack::Scoreboard board = RunClinical(120, 9, trials);
    EXPECT_GE(board.row(TechnologyClass::kSdcPlusPir)
                  .cells[static_cast<size_t>(Dimension::kUser)]
                  .score(),
              0.8)
        << trials;
  }
}

TEST(ScoreboardTest, DatasetRecoveryRejectsDegenerateWindow) {
  // A window outside (0, 100] has no finite prior (100 / 0 window-widths)
  // or no meaning; the attack refuses it instead of casting +inf.
  const DataTable trial = MakeExtendedTrial(60, 4);
  for (double window : {0.0, -1.0, 101.0}) {
    auto outcome = attack::RunDatasetRecoveryAttack(trial, trial, window, {});
    ASSERT_FALSE(outcome.ok()) << window;
    EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument)
        << window;
  }
  auto verbatim = attack::RunDatasetRecoveryAttack(trial, trial, 2.0, {});
  ASSERT_TRUE(verbatim.ok()) << verbatim.status().ToString();
  EXPECT_DOUBLE_EQ(verbatim->success_rate(), 1.0);
  EXPECT_DOUBLE_EQ(verbatim->records_recovered,
                   static_cast<double>(verbatim->records_total));
}

}  // namespace
}  // namespace tripriv
