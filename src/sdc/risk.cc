#include "sdc/risk.h"

#include <cmath>
#include <limits>
#include <numeric>

#include "sdc/equivalence.h"
#include "stats/descriptive.h"

namespace tripriv {

void StandardizeJointly(std::vector<std::vector<double>>* a,
                        std::vector<std::vector<double>>* b) {
  if (a->empty()) return;
  const size_t d = (*a)[0].size();
  for (size_t j = 0; j < d; ++j) {
    std::vector<double> col(a->size());
    for (size_t i = 0; i < a->size(); ++i) col[i] = (*a)[i][j];
    const double mean = Mean(col);
    const double sd = col.size() >= 2 ? SampleStddev(col) : 0.0;
    const double scale = sd > 0.0 ? 1.0 / sd : 1.0;
    for (auto& row : *a) row[j] = (row[j] - mean) * scale;
    for (auto& row : *b) row[j] = (row[j] - mean) * scale;
  }
}

std::vector<size_t> NearestTies(const std::vector<double>& probe,
                                const std::vector<std::vector<double>>& rel,
                                const std::vector<size_t>& candidates) {
  double best = std::numeric_limits<double>::infinity();
  std::vector<size_t> ties;
  for (size_t j : candidates) {
    const double d = SquaredDistance(probe, rel[j]);
    if (d < best - 1e-12) {
      best = d;
      ties.assign(1, j);
    } else if (std::fabs(d - best) <= 1e-12) {
      ties.push_back(j);
    }
  }
  return ties;
}

Result<LinkageResult> DistanceLinkageAttack(const DataTable& original,
                                            const DataTable& masked,
                                            const std::vector<size_t>& qi_cols) {
  if (original.num_rows() != masked.num_rows()) {
    return Status::InvalidArgument(
        "record linkage requires aligned original and masked tables");
  }
  if (qi_cols.empty()) {
    return Status::InvalidArgument("no quasi-identifier columns given");
  }
  TRIPRIV_ASSIGN_OR_RETURN(auto ext, original.NumericMatrix(qi_cols));
  TRIPRIV_ASSIGN_OR_RETURN(auto rel, masked.NumericMatrix(qi_cols));
  StandardizeJointly(&ext, &rel);

  std::vector<size_t> all_rows(rel.size());
  std::iota(all_rows.begin(), all_rows.end(), size_t{0});

  LinkageResult result;
  result.total = original.num_rows();
  double expected_correct = 0.0;
  for (size_t i = 0; i < ext.size(); ++i) {
    const std::vector<size_t> ties = NearestTies(ext[i], rel, all_rows);
    for (size_t j : ties) {
      if (j == i) {
        expected_correct += 1.0 / static_cast<double>(ties.size());
        break;
      }
    }
  }
  result.expected_correct = expected_correct;
  result.correct = static_cast<size_t>(std::llround(expected_correct));
  result.correct_fraction =
      result.total == 0 ? 0.0
                        : expected_correct / static_cast<double>(result.total);
  return result;
}

Result<LinkageResult> DistanceLinkageAttack(const DataTable& original,
                                            const DataTable& masked) {
  return DistanceLinkageAttack(original, masked,
                               original.schema().QuasiIdentifierIndices());
}

double ExpectedReidentificationRate(const DataTable& table,
                                    const std::vector<size_t>& qi_cols) {
  if (table.num_rows() == 0) return 0.0;
  const auto classes = GroupByColumns(table, qi_cols);
  return static_cast<double>(classes.classes.size()) /
         static_cast<double>(table.num_rows());
}

double ExpectedReidentificationRate(const DataTable& table) {
  return ExpectedReidentificationRate(table,
                                      table.schema().QuasiIdentifierIndices());
}

Result<double> IntervalDisclosureRate(const DataTable& original,
                                      const DataTable& masked, size_t col,
                                      double window_percent) {
  if (original.num_rows() != masked.num_rows()) {
    return Status::InvalidArgument("tables must be row-aligned");
  }
  if (window_percent < 0.0 || window_percent > 100.0) {
    return Status::InvalidArgument("window must be in [0, 100] percent");
  }
  if (original.num_rows() == 0) return 0.0;
  TRIPRIV_ASSIGN_OR_RETURN(auto orig, original.NumericColumn(col));
  TRIPRIV_ASSIGN_OR_RETURN(auto mask, masked.NumericColumn(col));
  const double range = Max(orig) - Min(orig);
  const double window = window_percent / 100.0 * (range > 0.0 ? range : 1.0);
  size_t disclosed = 0;
  for (size_t i = 0; i < orig.size(); ++i) {
    if (std::fabs(orig[i] - mask[i]) <= window) ++disclosed;
  }
  return static_cast<double>(disclosed) / static_cast<double>(orig.size());
}

}  // namespace tripriv
