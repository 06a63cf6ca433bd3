#include "sdc/noise.h"

#include <cmath>

#include "stats/descriptive.h"
#include "stats/linalg.h"
#include "util/random.h"

namespace tripriv {

Result<DataTable> AddUncorrelatedNoise(const DataTable& table, double alpha,
                                       const std::vector<size_t>& cols,
                                       uint64_t seed) {
  if (!(0.0 <= alpha && std::isfinite(alpha))) {
    return Status::InvalidArgument("alpha must be finite and >= 0");
  }
  if (table.num_rows() < 2) {
    return Status::InvalidArgument("need >= 2 rows to estimate noise scale");
  }
  Rng rng(seed);
  DataTable out = table;
  for (size_t c : cols) {
    TRIPRIV_ASSIGN_OR_RETURN(auto values, table.NumericColumn(c));
    const double sigma = alpha * SampleStddev(values);
    for (double& v : values) v += rng.Normal(0.0, sigma);
    TRIPRIV_RETURN_IF_ERROR(out.SetNumericColumn(c, values));
  }
  return out;
}

Result<DataTable> AddCorrelatedNoise(const DataTable& table, double alpha,
                                     const std::vector<size_t>& cols,
                                     uint64_t seed) {
  if (!(0.0 <= alpha && std::isfinite(alpha))) {
    return Status::InvalidArgument("alpha must be finite and >= 0");
  }
  if (table.num_rows() < 2) {
    return Status::InvalidArgument("need >= 2 rows to estimate covariance");
  }
  if (alpha == 0.0) return table;
  Rng rng(seed);
  TRIPRIV_ASSIGN_OR_RETURN(auto data, table.NumericMatrix(cols));
  auto cov = CovarianceMatrix(data);
  for (auto& row : cov) {
    for (double& v : row) v *= alpha;
  }
  TRIPRIV_ASSIGN_OR_RETURN(auto chol, CholeskyDecompose(std::move(cov)));
  const std::vector<double> zero(cols.size(), 0.0);
  for (auto& row : data) {
    const auto noise = MultivariateNormalSample(zero, chol, &rng);
    for (size_t j = 0; j < row.size(); ++j) row[j] += noise[j];
  }
  DataTable out = table;
  for (size_t j = 0; j < cols.size(); ++j) {
    std::vector<double> col(data.size());
    for (size_t r = 0; r < data.size(); ++r) col[r] = data[r][j];
    TRIPRIV_RETURN_IF_ERROR(out.SetNumericColumn(cols[j], col));
  }
  return out;
}

Result<DataTable> AddFixedNoise(const DataTable& table, double sigma,
                                size_t col, uint64_t seed) {
  if (!(0.0 <= sigma && std::isfinite(sigma))) {
    return Status::InvalidArgument("sigma must be finite and >= 0");
  }
  Rng rng(seed);
  TRIPRIV_ASSIGN_OR_RETURN(auto values, table.NumericColumn(col));
  for (double& v : values) v += rng.Normal(0.0, sigma);
  DataTable out = table;
  TRIPRIV_RETURN_IF_ERROR(out.SetNumericColumn(col, values));
  return out;
}

}  // namespace tripriv
