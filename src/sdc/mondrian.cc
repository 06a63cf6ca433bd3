#include "sdc/mondrian.h"

#include <algorithm>
#include <numeric>

#include "sdc/microaggregation.h"
#include "stats/descriptive.h"

namespace tripriv {
namespace {

struct Context {
  const std::vector<std::vector<double>>* data;  // row-major QI matrix
  std::vector<double> col_range;                 // global range per QI, for normalization
  size_t k;
  std::vector<std::vector<size_t>> leaves;
};

/// Recursively partitions `rows`; appends finished leaves to ctx->leaves.
void Partition(Context* ctx, std::vector<size_t> rows) {
  const size_t d = ctx->col_range.size();
  if (rows.size() >= 2 * ctx->k) {
    // Rank QI attributes by normalized range over this partition.
    std::vector<std::pair<double, size_t>> spreads;
    for (size_t j = 0; j < d; ++j) {
      double lo = (*ctx->data)[rows[0]][j];
      double hi = lo;
      for (size_t r : rows) {
        lo = std::min(lo, (*ctx->data)[r][j]);
        hi = std::max(hi, (*ctx->data)[r][j]);
      }
      const double norm = ctx->col_range[j] > 0.0 ? ctx->col_range[j] : 1.0;
      spreads.emplace_back((hi - lo) / norm, j);
    }
    std::sort(spreads.rbegin(), spreads.rend());
    // Try attributes in decreasing spread until a strict median split keeps
    // k records on both sides.
    for (const auto& [spread, j] : spreads) {
      if (spread <= 0.0) break;
      std::vector<size_t> sorted = rows;
      std::sort(sorted.begin(), sorted.end(), [&](size_t a, size_t b) {
        return (*ctx->data)[a][j] < (*ctx->data)[b][j];
      });
      const double median = (*ctx->data)[sorted[sorted.size() / 2]][j];
      std::vector<size_t> left;
      std::vector<size_t> right;
      for (size_t r : sorted) {
        ((*ctx->data)[r][j] < median ? left : right).push_back(r);
      }
      if (left.size() >= ctx->k && right.size() >= ctx->k) {
        Partition(ctx, std::move(left));
        Partition(ctx, std::move(right));
        return;
      }
    }
  }
  ctx->leaves.push_back(std::move(rows));
}

}  // namespace

Result<MondrianResult> MondrianAnonymize(const DataTable& table, size_t k,
                                         const std::vector<size_t>& cols) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (table.num_rows() == 0) {
    return Status::InvalidArgument("cannot anonymize an empty table");
  }
  if (cols.empty()) return Status::InvalidArgument("no columns to recode");
  TRIPRIV_ASSIGN_OR_RETURN(auto data, table.NumericMatrix(cols));
  TRIPRIV_RETURN_IF_ERROR(RequireFinite(data));

  Context ctx;
  ctx.data = &data;
  ctx.k = k;
  ctx.col_range.resize(cols.size());
  for (size_t j = 0; j < cols.size(); ++j) {
    double lo = data[0][j];
    double hi = lo;
    for (const auto& row : data) {
      lo = std::min(lo, row[j]);
      hi = std::max(hi, row[j]);
    }
    ctx.col_range[j] = hi - lo;
  }
  std::vector<size_t> all(table.num_rows());
  std::iota(all.begin(), all.end(), 0);
  Partition(&ctx, std::move(all));

  MondrianResult result;
  result.table = table;
  result.group_of_row.assign(table.num_rows(), 0);
  result.num_groups = ctx.leaves.size();
  std::vector<std::vector<double>> masked = data;
  for (size_t g = 0; g < ctx.leaves.size(); ++g) {
    std::vector<double> centroid(cols.size(), 0.0);
    for (size_t r : ctx.leaves[g]) {
      for (size_t j = 0; j < cols.size(); ++j) centroid[j] += data[r][j];
    }
    for (double& v : centroid) v /= static_cast<double>(ctx.leaves[g].size());
    for (size_t r : ctx.leaves[g]) {
      result.group_of_row[r] = g;
      masked[r] = centroid;
    }
  }
  for (size_t j = 0; j < cols.size(); ++j) {
    std::vector<double> col(table.num_rows());
    for (size_t r = 0; r < table.num_rows(); ++r) col[r] = masked[r][j];
    TRIPRIV_RETURN_IF_ERROR(result.table.SetNumericColumn(cols[j], col));
  }
  return result;
}

Result<MondrianResult> MondrianAnonymize(const DataTable& table, size_t k) {
  const std::vector<size_t> qi = table.schema().QuasiIdentifierIndices();
  if (qi.empty()) {
    return Status::FailedPrecondition("schema declares no quasi-identifiers");
  }
  return MondrianAnonymize(table, k, qi);
}

}  // namespace tripriv
