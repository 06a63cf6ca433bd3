// Additive noise masking.
//
// The masking family behind both SDC noise addition and the
// Agrawal-Srikant PPDM method [5]: release X + E instead of X. Two
// variants:
//   * uncorrelated: E_j ~ N(0, (alpha * sd(X_j))^2) independently per
//     attribute;
//   * correlated: E ~ N(0, alpha * Cov(X)) — preserves the correlation
//     structure of the data up to a known scale factor, so analyses on
//     second moments remain valid (classic Kim-style noise).

#pragma once

#include <cstdint>
#include <vector>

#include "core/annotations.h"
#include "table/data_table.h"

namespace tripriv {

/// Adds independent Gaussian noise with per-column standard deviation
/// alpha * sd(column) to the numeric columns `cols`. Requires a finite
/// alpha >= 0 and >= 2 rows (to estimate sd).
TRIPRIV_SANITIZES(aggregate)
Result<DataTable> AddUncorrelatedNoise(const DataTable& table, double alpha,
                                       const std::vector<size_t>& cols,
                                       uint64_t seed);

/// Adds multivariate Gaussian noise with covariance alpha * Cov(columns).
/// Requires a finite alpha >= 0 and >= 2 rows.
TRIPRIV_SANITIZES(aggregate)
Result<DataTable> AddCorrelatedNoise(const DataTable& table, double alpha,
                                     const std::vector<size_t>& cols,
                                     uint64_t seed);

/// Adds N(0, sigma^2) noise with a fixed absolute sigma to one column —
/// the exact setting of the Agrawal-Srikant reconstruction experiments.
/// Requires a finite sigma >= 0.
TRIPRIV_SANITIZES(aggregate)
Result<DataTable> AddFixedNoise(const DataTable& table, double sigma,
                                size_t col, uint64_t seed);

}  // namespace tripriv

