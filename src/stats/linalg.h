// Minimal dense linear algebra: Cholesky factorization and multivariate
// normal sampling, used by correlated-noise masking and condensation.

#pragma once

#include <vector>

#include "util/random.h"
#include "util/status.h"

namespace tripriv {

/// Lower-triangular Cholesky factor L of a symmetric positive-semidefinite
/// matrix (A = L L^T). A diagonal `jitter` is added (and escalated up to
/// 1e6x) when A is only semidefinite; fails if the matrix is indefinite
/// beyond that.
Result<std::vector<std::vector<double>>> CholeskyDecompose(
    std::vector<std::vector<double>> a, double jitter = 1e-10);

/// Draws one sample from N(mean, L L^T) given the Cholesky factor L.
std::vector<double> MultivariateNormalSample(
    const std::vector<double>& mean,
    const std::vector<std::vector<double>>& chol, Rng* rng);

/// Frobenius norm.
double FrobeniusNorm(const std::vector<std::vector<double>>& m);

}  // namespace tripriv

