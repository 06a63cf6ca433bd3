#include "sdc/anonymity.h"

#include <algorithm>
#include <set>

namespace tripriv {

size_t AnonymityLevel(const DataTable& table,
                      const std::vector<size_t>& qi_cols) {
  const std::vector<size_t> sizes = ClassSizes(table, qi_cols);
  if (sizes.empty()) return 0;
  return *std::min_element(sizes.begin(), sizes.end());
}

size_t AnonymityLevel(const DataTable& table) {
  return AnonymityLevel(table, table.schema().QuasiIdentifierIndices());
}

bool IsKAnonymous(const DataTable& table, size_t k,
                  const std::vector<size_t>& qi_cols) {
  return AnonymityLevel(table, qi_cols) >= k;
}

bool IsKAnonymous(const DataTable& table, size_t k) {
  return AnonymityLevel(table) >= k;
}

size_t SensitivityLevel(const DataTable& table,
                        const std::vector<size_t>& qi_cols, size_t conf_col) {
  const EquivalenceClasses classes = GroupByColumns(table, qi_cols);
  size_t min_distinct = 0;
  bool first = true;
  for (const auto& cls : classes.classes) {
    std::set<Value> distinct;
    for (size_t r : cls) distinct.insert(table.at(r, conf_col));
    if (first || distinct.size() < min_distinct) {
      min_distinct = distinct.size();
      first = false;
    }
  }
  return first ? 0 : min_distinct;
}

bool IsPSensitiveKAnonymous(const DataTable& table, size_t k, size_t p) {
  const std::vector<size_t> qi = table.schema().QuasiIdentifierIndices();
  if (AnonymityLevel(table, qi) < k) return false;
  for (size_t conf : table.schema().ConfidentialIndices()) {
    if (SensitivityLevel(table, qi, conf) < p) return false;
  }
  return true;
}

size_t DistinctLDiversity(const DataTable& table, size_t conf_col) {
  return SensitivityLevel(table, table.schema().QuasiIdentifierIndices(),
                          conf_col);
}

double UniquenessFraction(const DataTable& table,
                          const std::vector<size_t>& qi_cols) {
  if (table.num_rows() == 0) return 0.0;
  const std::vector<size_t> sizes = ClassSizes(table, qi_cols);
  const auto unique = std::count(sizes.begin(), sizes.end(), size_t{1});
  return static_cast<double>(unique) / static_cast<double>(table.num_rows());
}

}  // namespace tripriv
