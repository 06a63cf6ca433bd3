// Experiment: Table 2 — the technology scoreboard.
//
// The paper scores 8 technology classes x 3 privacy dimensions
// qualitatively. This harness *measures* each cell with the attack
// batteries of attack/scoreboard.h (the clinical preset) on a 400-record
// synthetic drug trial (4 numeric quasi-identifiers), prints measured vs
// claimed grades with the attack outcomes behind them, and exits 0 only
// when every cell of all 9 rows agrees within one band.

#include <cstdio>

#include "attack/scoreboard.h"
#include "table/datasets.h"

int main() {
  using namespace tripriv;
  std::printf("=== TriPriv experiment: Table 2 (empirical technology "
              "scoring) ===\n");
  std::printf("scenario: synthetic hypertension trial, n=400, QIs = {age, "
              "height, weight, cholesterol}\n");
  std::printf("attacks: record linkage + disclosure (respondent), cell "
              "recovery within 2%% of range (owner),\n"
              "         query-log profiling + server-view guessing (user)\n\n");

  auto board = attack::RunEmpiricalTable2(
      MakeExtendedTrial(400, 7), attack::ClinicalTable2Config(7), {});
  if (!board.ok()) {
    std::printf("evaluation failed: %s\n", board.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", board->RenderText().c_str());

  size_t agreeing_cells = 0;
  size_t total_cells = 0;
  for (const attack::ScoreboardRow& row : board->rows()) {
    for (Dimension d : kAllDimensions) {
      ++total_cells;
      if (GradesAgree(row.ClaimedGrade(d), row.MeasuredGrade(d))) {
        ++agreeing_cells;
      }
    }
  }
  std::printf("agreement with the paper's Table 2 (within one grade band): "
              "%zu / %zu cells\n",
              agreeing_cells, total_cells);
  return agreeing_cells == total_cells ? 0 : 1;
}
