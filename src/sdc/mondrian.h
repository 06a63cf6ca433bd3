// Mondrian: greedy multidimensional k-anonymity by recursive partitioning.
//
// The multidimensional recoding algorithm (LeFevre et al.; the class of
// k-anonymization algorithms referenced by the paper via [2]): recursively
// split the record set on the median of the quasi-identifier with the
// widest normalized range, as long as both halves keep at least k records;
// then recode each leaf partition by its QI centroid.

#pragma once

#include <vector>

#include "table/data_table.h"

namespace tripriv {

/// Result of Mondrian anonymization.
struct MondrianResult {
  /// Table with each partition's values of the recoded columns replaced by
  /// the partition centroid (so the output is k-anonymous on them).
  DataTable table;
  std::vector<size_t> group_of_row;
  size_t num_groups = 0;
};

/// Runs strict Mondrian over the columns `cols`, which must all be numeric
/// and finite, and recodes exactly those columns; every other column is
/// released as is. Requires k >= 1, a non-empty table and at least one
/// column.
Result<MondrianResult> MondrianAnonymize(const DataTable& table, size_t k,
                                         const std::vector<size_t>& cols);

/// Mondrian over the schema's quasi-identifiers (all must be numeric).
Result<MondrianResult> MondrianAnonymize(const DataTable& table, size_t k);

}  // namespace tripriv

