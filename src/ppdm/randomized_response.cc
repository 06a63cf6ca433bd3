#include "ppdm/randomized_response.h"

#include <algorithm>
#include <set>

#include "util/random.h"

namespace tripriv {

Result<DataTable> RandomizedResponseMask(const DataTable& table, size_t col,
                                         double p, uint64_t seed) {
  if (!(0.0 <= p && p <= 1.0)) {
    return Status::InvalidArgument("retention probability must be in [0, 1]");
  }
  if (col >= table.num_columns() ||
      table.schema().attribute(col).type != AttributeType::kCategorical) {
    return Status::InvalidArgument("randomized response needs a categorical column");
  }
  // Domain = observed categories.
  std::set<std::string> domain_set;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    const Value& v = table.at(r, col);
    if (v.is_string()) domain_set.insert(v.AsString());
  }
  if (domain_set.empty()) {
    return Status::InvalidArgument("column has no categorical values");
  }
  std::vector<std::string> domain(domain_set.begin(), domain_set.end());

  Rng rng(seed);
  DataTable out = table;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    const Value& v = table.at(r, col);
    if (!v.is_string()) continue;
    if (rng.Bernoulli(p)) continue;  // keep
    const std::string& replacement = domain[rng.UniformU64(domain.size())];
    TRIPRIV_RETURN_IF_ERROR(out.Set(r, col, Value(replacement)));
  }
  return out;
}

Result<std::map<std::string, double>> ObservedDistribution(
    const DataTable& table, size_t col) {
  if (table.num_rows() == 0) return Status::InvalidArgument("empty table");
  if (col >= table.num_columns()) {
    return Status::InvalidArgument("column index out of range");
  }
  std::map<std::string, double> out;
  size_t n = 0;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    const Value& v = table.at(r, col);
    if (!v.is_string()) continue;
    out[v.AsString()] += 1.0;
    ++n;
  }
  if (n == 0) return Status::InvalidArgument("column has no categorical values");
  for (auto& [k, v] : out) v /= static_cast<double>(n);
  return out;
}

Result<std::map<std::string, double>> EstimateTrueDistribution(
    const DataTable& masked, size_t col, double p,
    const std::vector<std::string>& domain) {
  if (domain.empty()) return Status::InvalidArgument("empty domain");
  const std::set<std::string> categories(domain.begin(), domain.end());
  if (categories.size() != domain.size()) {
    return Status::InvalidArgument("domain repeats a category");
  }
  const double c = static_cast<double>(domain.size());
  // lambda_k = pi_k * p + (1-p)/c  (replacement is uniform over the domain,
  // independent of the original value), so pi_k = (lambda_k - (1-p)/c) / p.
  // p = 0 carries no information.
  if (!(0.0 < p && p <= 1.0)) {
    return Status::InvalidArgument("retention probability must be in (0, 1]");
  }
  TRIPRIV_ASSIGN_OR_RETURN(auto observed, ObservedDistribution(masked, col));
  // The model draws replacements uniformly over `domain`, so a category the
  // column shows outside it breaks every estimate, not just its own.
  for (const auto& entry : observed) {
    if (!categories.contains(entry.first)) {
      return Status::InvalidArgument(
          "masked column holds a category outside the domain");
    }
  }
  std::map<std::string, double> estimate;
  double total = 0.0;
  for (const auto& category : domain) {
    const double lambda =
        observed.contains(category) ? observed.at(category) : 0.0;
    double pi = (lambda - (1.0 - p) / c) / p;
    pi = std::clamp(pi, 0.0, 1.0);
    estimate[category] = pi;
    total += pi;
  }
  if (total > 0.0) {
    for (auto& [k, v] : estimate) v /= total;
  }
  return estimate;
}

}  // namespace tripriv
