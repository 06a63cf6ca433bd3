#include "sdc/risk.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "sdc/equivalence.h"
#include "stats/descriptive.h"

namespace tripriv {

Result<LinkagePoints> StandardizedLinkagePoints(
    const DataTable& original, const DataTable& masked,
    const std::vector<size_t>& qi_cols) {
  if (original.num_rows() != masked.num_rows()) {
    return Status::InvalidArgument("linkage points need row-aligned tables");
  }
  LinkagePoints points;
  points.dims = qi_cols.size();
  points.rows = original.num_rows();
  const size_t d = points.dims;
  const size_t n = points.rows;
  points.external.resize(n * d);
  points.released.resize(n * d);
  std::vector<double> mean(d, 0.0);
  std::vector<double> scale(d, 1.0);
  // The original's columns first, then the release's, so the first
  // failure is the one a row-major read of the original, then of the
  // release, meets.
  for (size_t j = 0; j < d; ++j) {
    Result<std::vector<double>> col = original.NumericColumn(qi_cols[j]);
    if (!col.ok()) return original.NumericMatrix(qi_cols).status();
    if (n == 0) continue;
    mean[j] = Mean(*col);
    const double sd = n >= 2 ? SampleStddev(*col) : 0.0;
    scale[j] = sd > 0.0 ? 1.0 / sd : 1.0;
    for (size_t i = 0; i < n; ++i) {
      points.external[i * d + j] = ((*col)[i] - mean[j]) * scale[j];
    }
  }
  for (size_t j = 0; j < d; ++j) {
    Result<std::vector<double>> col = masked.NumericColumn(qi_cols[j]);
    if (!col.ok()) return masked.NumericMatrix(qi_cols).status();
    for (size_t i = 0; i < n; ++i) {
      points.released[i * d + j] = ((*col)[i] - mean[j]) * scale[j];
    }
  }
  return points;
}

namespace {

double SquaredDistanceTo(const double* probe, const double* other,
                         size_t dims) {
  double dist = 0;
  for (size_t c = 0; c < dims; ++c) {
    const double diff = probe[c] - other[c];
    dist += diff * diff;
  }
  return dist;
}

/// The one 1e-12 tie scan: walks `count` candidates in the given order,
/// `candidate(k)` returning the k-th one's (row, squared distance).
template <typename Candidate>
void ScanTies(size_t count, Candidate candidate, std::vector<size_t>* ties) {
  double best = std::numeric_limits<double>::infinity();
  ties->clear();
  for (size_t k = 0; k < count; ++k) {
    const auto [row, dist] = candidate(k);
    if (dist < best - 1e-12) {
      best = dist;
      ties->assign(1, row);
    } else if (std::fabs(dist - best) <= 1e-12) {
      ties->push_back(row);
    }
  }
}

}  // namespace

void NearestTies(const LinkagePoints& points, const double* probe,
                 const std::vector<size_t>& candidates,
                 std::vector<size_t>* ties) {
  ScanTies(
      candidates.size(),
      [&](size_t k) {
        const size_t j = candidates[k];
        return std::pair<size_t, double>(
            j, SquaredDistanceTo(probe, points.candidate(j), points.dims));
      },
      ties);
}

void NearestTiesInBand(const LinkagePoints& points, const double* probe,
                       const std::vector<size_t>& candidates,
                       TieBandScratch* scratch, std::vector<size_t>* ties) {
  const size_t m = candidates.size();
  std::vector<double>& dist = scratch->distance;
  dist.resize(m);
  double theta = std::numeric_limits<double>::infinity();
  for (size_t k = 0; k < m; ++k) {
    dist[k] = SquaredDistanceTo(probe, points.candidate(candidates[k]),
                                points.dims);
    theta = std::min(theta, dist[k]);  // skips NaN
  }
  std::vector<std::pair<size_t, double>>& band = scratch->band;
  // Collect the band under theta while finding the next larger distance;
  // raise theta and collect again while that distance is near enough.
  for (bool raised = true; raised;) {
    band.clear();
    bool above = false;
    double next = std::numeric_limits<double>::infinity();
    for (size_t k = 0; k < m; ++k) {
      if (dist[k] <= theta) {
        band.emplace_back(candidates[k], dist[k]);
      } else if (dist[k] > theta) {
        above = true;
        next = std::min(next, dist[k]);
      }
    }
    raised = above && next - theta <= 4e-12 + 0x1p-50 * next;
    if (raised) theta = next;
  }
  std::sort(band.begin(), band.end());
  ScanTies(band.size(), [&](size_t k) { return band[k]; }, ties);
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
  for (size_t col : qi_cols) {
    if (col >= original.num_columns() || col >= masked.num_columns()) {
      return Status::InvalidArgument("quasi-identifier column out of range");
    }
  }
  TRIPRIV_ASSIGN_OR_RETURN(
      const LinkagePoints points,
      StandardizedLinkagePoints(original, masked, qi_cols));

  std::vector<size_t> all_rows(points.rows);
  std::iota(all_rows.begin(), all_rows.end(), size_t{0});

  LinkageResult result;
  result.total = original.num_rows();
  double expected_correct = 0.0;
  std::vector<size_t> ties;
  for (size_t i = 0; i < points.rows; ++i) {
    NearestTies(points, points.probe(i), all_rows, &ties);
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
  if (!(window_percent >= 0.0 && window_percent <= 100.0)) {
    return Status::InvalidArgument("window must be in [0, 100] percent");
  }
  if (col >= original.num_columns() || col >= masked.num_columns()) {
    return Status::InvalidArgument("column index out of range");
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
