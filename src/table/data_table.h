// DataTable: an in-memory microdata table (rows of Values under a Schema).
//
// Row-major storage: the privacy algorithms in this library are
// record-oriented (records are the unit of re-identification), and tables
// are laptop-scale. Cells are type-checked against the schema on insertion.

#pragma once

#include <functional>
#include <string_view>
#include <vector>

#include "core/annotations.h"
#include "table/schema.h"
#include "table/value.h"
#include "util/status.h"

namespace tripriv {

/// In-memory microdata table.
class DataTable {
 public:
  DataTable() = default;
  /// Empty table with the given schema.
  explicit DataTable(Schema schema) : schema_(std::move(schema)) {}

  /// Builds a table from rows, validating every cell against the schema.
  static Result<DataTable> FromRows(Schema schema,
                                    std::vector<std::vector<Value>> rows);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return rows_.size(); }
  size_t num_columns() const { return schema_.size(); }

  /// Cell accessors (bounds are programmer errors). Cells are the unit of
  /// re-identification: record-level sensitivity at the taint layer.
  TRIPRIV_SENSITIVE(record)
  const Value& at(size_t row, size_t col) const {
    TRIPRIV_CHECK_LT(row, rows_.size());
    TRIPRIV_CHECK_LT(col, schema_.size());
    return rows_[row][col];
  }
  /// Sets a cell after validating the value against the column type.
  Status Set(size_t row, size_t col, Value v);

  TRIPRIV_SENSITIVE(record)
  const std::vector<Value>& row(size_t i) const {
    TRIPRIV_CHECK_LT(i, rows_.size());
    return rows_[i];
  }

  /// Appends a row after validating arity and cell types.
  Status AppendRow(std::vector<Value> row);

  /// Removes the rows at `sorted_rows` (strictly ascending, each below
  /// num_rows) in one stable compaction: the other rows keep their order
  /// and are moved, not copied.
  void EraseRows(const std::vector<size_t>& sorted_rows);

  /// Validates `v` against the attribute at `col` (null always allowed).
  Status ValidateCell(size_t col, const Value& v) const;

  /// All values of one column, in row order.
  TRIPRIV_SENSITIVE(record)
  std::vector<Value> ColumnValues(size_t col) const;
  /// Numeric column as doubles (ints coerced). Fails on strings; null cells
  /// fail too (callers mask or drop nulls first).
  Result<std::vector<double>> NumericColumn(size_t col) const;
  /// Numeric column looked up by name.
  Result<std::vector<double>> NumericColumn(std::string_view name) const;

  /// Overwrites one column with `values` (size must equal num_rows; each
  /// value is validated).
  Status SetColumn(size_t col, const std::vector<Value>& values);
  /// Overwrites a numeric column from doubles; integer columns are rounded.
  /// Fails on a categorical column.
  Status SetNumericColumn(size_t col, const std::vector<double>& values);

  /// New table with only the columns at `indices`.
  DataTable Project(const std::vector<size_t>& indices) const;
  /// New table with only the rows at `row_indices` (in the given order).
  DataTable SelectRows(const std::vector<size_t>& row_indices) const;
  /// New table with rows satisfying `keep`.
  DataTable Filter(const std::function<bool(const std::vector<Value>&)>& keep) const;

  /// Numeric matrix view of the columns at `cols` (row-major). Fails if any
  /// referenced cell is non-numeric.
  Result<std::vector<std::vector<double>>> NumericMatrix(
      const std::vector<size_t>& cols) const;

  /// Renders an ASCII table (header + rows), for examples and benches.
  std::string ToPrettyString(size_t max_rows = 20) const;

  bool operator==(const DataTable& other) const {
    return schema_ == other.schema_ && rows_ == other.rows_;
  }

 private:
  Schema schema_;
  std::vector<std::vector<Value>> rows_;
};

}  // namespace tripriv

