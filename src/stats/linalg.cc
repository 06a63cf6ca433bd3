#include "stats/linalg.h"

#include <cmath>

namespace tripriv {
namespace {

// One Cholesky attempt; false if a non-positive pivot is hit.
bool TryCholesky(const std::vector<std::vector<double>>& a,
                 std::vector<std::vector<double>>* l) {
  const size_t n = a.size();
  l->assign(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double sum = a[i][j];
      for (size_t k = 0; k < j; ++k) sum -= (*l)[i][k] * (*l)[j][k];
      if (i == j) {
        if (sum <= 0.0) return false;
        (*l)[i][i] = std::sqrt(sum);
      } else {
        (*l)[i][j] = sum / (*l)[j][j];
      }
    }
  }
  return true;
}

}  // namespace

Result<std::vector<std::vector<double>>> CholeskyDecompose(
    std::vector<std::vector<double>> a, double jitter) {
  const size_t n = a.size();
  for (const auto& row : a) {
    if (row.size() != n) {
      return Status::InvalidArgument("Cholesky: matrix is not square");
    }
  }
  std::vector<std::vector<double>> l;
  if (TryCholesky(a, &l)) return l;
  // Escalate diagonal jitter for semidefinite inputs (e.g. covariance of a
  // group smaller than the dimension) — but only up to a tiny fraction of
  // the diagonal scale, so genuinely indefinite matrices still fail.
  double scale = 0.0;
  for (size_t i = 0; i < n; ++i) scale = std::max(scale, std::fabs(a[i][i]));
  const double max_eps = 1e-6 * std::max(scale, 1.0);
  for (double eps = jitter; eps <= max_eps; eps *= 100.0) {
    auto jittered = a;
    for (size_t i = 0; i < n; ++i) jittered[i][i] += eps;
    if (TryCholesky(jittered, &l)) return l;
  }
  return Status::InvalidArgument("Cholesky: matrix is not positive semidefinite");
}

std::vector<double> MultivariateNormalSample(
    const std::vector<double>& mean,
    const std::vector<std::vector<double>>& chol, Rng* rng) {
  TRIPRIV_CHECK(rng != nullptr);
  TRIPRIV_CHECK_EQ(mean.size(), chol.size());
  const size_t n = mean.size();
  std::vector<double> z(n);
  for (double& v : z) v = rng->Normal();
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) {
    double s = mean[i];
    for (size_t j = 0; j <= i; ++j) s += chol[i][j] * z[j];
    out[i] = s;
  }
  return out;
}

double FrobeniusNorm(const std::vector<std::vector<double>>& m) {
  double s = 0;
  for (const auto& row : m) {
    for (double v : row) s += v * v;
  }
  return std::sqrt(s);
}

}  // namespace tripriv
