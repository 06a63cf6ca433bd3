// Equivalence classes over quasi-identifier attributes.
//
// An equivalence class is a maximal set of records sharing the same
// combination of quasi-identifier values — the unit over which k-anonymity,
// p-sensitivity, and l-diversity are defined (Samarati & Sweeney).

#pragma once

#include <vector>

#include "table/data_table.h"

namespace tripriv {

/// Partition of row indices into equivalence classes.
struct EquivalenceClasses {
  /// Row indices grouped by identical QI combination; classes ordered by
  /// first appearance, rows in table order within each class.
  std::vector<std::vector<size_t>> classes;

  /// Size of the smallest class; 0 when there are no rows.
  size_t MinClassSize() const;
};

/// Groups rows of `table` by identical values of the columns `qi_cols`.
/// Cells compare with Value::operator==: null (suppressed) cells equal each
/// other, Value(1) differs from Value(1.0), +0.0 equals -0.0, and distinct
/// integers differ even past 2^53. A NaN cell equals nothing, not even
/// another NaN, so a row with a NaN QI cell forms a class of its own.
EquivalenceClasses GroupByColumns(const DataTable& table,
                                  const std::vector<size_t>& qi_cols);

/// The class sizes of GroupByColumns(table, qi_cols), in the same class
/// order, without building the member lists.
std::vector<size_t> ClassSizes(const DataTable& table,
                               const std::vector<size_t>& qi_cols);

/// Groups by the schema's quasi-identifier attributes.
EquivalenceClasses GroupByQuasiIdentifiers(const DataTable& table);

}  // namespace tripriv

