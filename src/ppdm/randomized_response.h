// Randomized response (Warner 1965; Du & Zhan [13]).
//
// The paper's footnote 1 discusses [13]: randomized response is marketed as
// respondent privacy, but in practice the *data owner* applies the
// randomizing device, making it an owner-privacy masking. Each categorical
// value is kept with probability p and otherwise replaced by a uniform
// random category; the true category distribution remains estimable without
// bias.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "table/data_table.h"

namespace tripriv {

/// Masks categorical column `col`: each value is kept with probability p,
/// otherwise replaced by a category drawn uniformly from the column's
/// domain (which may re-draw the original value). Requires p in [0, 1] and
/// a non-empty categorical column.
Result<DataTable> RandomizedResponseMask(const DataTable& table, size_t col,
                                         double p, uint64_t seed);

/// Unbiased estimate of the true category distribution from a masked
/// column. With c categories and retention probability p, the observed
/// frequency obeys lambda = (p + (1-p)/c) pi + (1-p)/c (1 - pi), inverted
/// per category. Estimates are clamped to [0, 1] and renormalized.
/// `domain` fixes the category order of the output and must not repeat a
/// category. Every category the masked column holds must be in `domain`; a
/// domain category the column never shows is estimated from lambda = 0.
/// Requires p in (0, 1].
Result<std::map<std::string, double>> EstimateTrueDistribution(
    const DataTable& masked, size_t col, double p,
    const std::vector<std::string>& domain);

/// Convenience: observed relative frequencies of a categorical column.
Result<std::map<std::string, double>> ObservedDistribution(
    const DataTable& table, size_t col);

}  // namespace tripriv

