#include "table/data_table.h"

#include <cmath>
#include <sstream>

namespace tripriv {

Result<DataTable> DataTable::FromRows(Schema schema,
                                      std::vector<std::vector<Value>> rows) {
  DataTable table(std::move(schema));
  for (auto& row : rows) {
    TRIPRIV_RETURN_IF_ERROR(table.AppendRow(std::move(row)));
  }
  return table;
}

Status DataTable::ValidateCell(size_t col, const Value& v) const {
  TRIPRIV_CHECK_LT(col, schema_.size());
  if (v.is_null()) return Status::OK();
  const Attribute& attr = schema_.attribute(col);
  switch (attr.type) {
    case AttributeType::kInteger:
      if (!v.is_int()) {
        // The offered value is record-level and must not enter the
        // message (taint-flow-to-sink); the type mismatch is the news.
        return Status::InvalidArgument("attribute '" + attr.name +
                                       "' expects integer");
      }
      break;
    case AttributeType::kReal:
      if (!v.is_numeric()) {
        return Status::InvalidArgument("attribute '" + attr.name +
                                       "' expects real");
      }
      break;
    case AttributeType::kCategorical:
      if (!v.is_string()) {
        return Status::InvalidArgument("attribute '" + attr.name +
                                       "' expects categorical");
      }
      break;
  }
  return Status::OK();
}

Status DataTable::Set(size_t row, size_t col, Value v) {
  TRIPRIV_CHECK_LT(row, rows_.size());
  TRIPRIV_RETURN_IF_ERROR(ValidateCell(col, v));
  rows_[row][col] = std::move(v);
  return Status::OK();
}

Status DataTable::AppendRow(std::vector<Value> row) {
  if (row.size() != schema_.size()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " cells, schema has " +
        std::to_string(schema_.size()));
  }
  for (size_t c = 0; c < row.size(); ++c) {
    TRIPRIV_RETURN_IF_ERROR(ValidateCell(c, row[c]));
  }
  rows_.push_back(std::move(row));
  return Status::OK();
}

void DataTable::EraseRows(const std::vector<size_t>& sorted_rows) {
  size_t next = 0;
  size_t out = 0;
  for (size_t r = 0; r < rows_.size(); ++r) {
    if (next < sorted_rows.size() && sorted_rows[next] == r) {
      ++next;
    } else {
      rows_[out++].swap(rows_[r]);
    }
  }
  TRIPRIV_CHECK(next == sorted_rows.size());
  rows_.erase(rows_.begin() + static_cast<std::ptrdiff_t>(out), rows_.end());
}

std::vector<Value> DataTable::ColumnValues(size_t col) const {
  TRIPRIV_CHECK_LT(col, schema_.size());
  std::vector<Value> out;
  out.reserve(rows_.size());
  for (const auto& row : rows_) out.push_back(row[col]);
  return out;
}

Result<std::vector<double>> DataTable::NumericColumn(size_t col) const {
  TRIPRIV_CHECK_LT(col, schema_.size());
  std::vector<double> out;
  out.reserve(rows_.size());
  for (size_t r = 0; r < rows_.size(); ++r) {
    const Value& v = rows_[r][col];
    if (!v.is_numeric()) {
      return Status::InvalidArgument(
          "non-numeric cell at row " + std::to_string(r) + ", column '" +
          schema_.attribute(col).name + "'");
    }
    out.push_back(v.ToDouble());
  }
  return out;
}

Result<std::vector<double>> DataTable::NumericColumn(std::string_view name) const {
  TRIPRIV_ASSIGN_OR_RETURN(size_t col, schema_.IndexOf(name));
  return NumericColumn(col);
}

Status DataTable::SetColumn(size_t col, const std::vector<Value>& values) {
  TRIPRIV_CHECK_LT(col, schema_.size());
  if (values.size() != rows_.size()) {
    return Status::InvalidArgument("SetColumn: size mismatch");
  }
  for (const Value& v : values) TRIPRIV_RETURN_IF_ERROR(ValidateCell(col, v));
  for (size_t r = 0; r < rows_.size(); ++r) rows_[r][col] = values[r];
  return Status::OK();
}

Status DataTable::SetNumericColumn(size_t col, const std::vector<double>& values) {
  TRIPRIV_CHECK_LT(col, schema_.size());
  if (values.size() != rows_.size()) {
    return Status::InvalidArgument("SetNumericColumn: size mismatch");
  }
  const Attribute& attr = schema_.attribute(col);
  if (attr.type == AttributeType::kCategorical) {
    return Status::InvalidArgument("attribute '" + attr.name +
                                   "' expects categorical");
  }
  const bool integral = attr.type == AttributeType::kInteger;
  for (size_t r = 0; r < rows_.size(); ++r) {
    if (integral) {
      rows_[r][col] = Value(static_cast<int64_t>(std::llround(values[r])));
    } else {
      rows_[r][col] = Value(values[r]);
    }
  }
  return Status::OK();
}

DataTable DataTable::Project(const std::vector<size_t>& indices) const {
  DataTable out(schema_.Project(indices));
  for (const auto& row : rows_) {
    std::vector<Value> projected;
    projected.reserve(indices.size());
    for (size_t i : indices) projected.push_back(row[i]);
    out.rows_.push_back(std::move(projected));
  }
  return out;
}

DataTable DataTable::SelectRows(const std::vector<size_t>& row_indices) const {
  DataTable out(schema_);
  out.rows_.reserve(row_indices.size());
  for (size_t i : row_indices) {
    TRIPRIV_CHECK_LT(i, rows_.size());
    out.rows_.push_back(rows_[i]);
  }
  return out;
}

DataTable DataTable::Filter(
    const std::function<bool(const std::vector<Value>&)>& keep) const {
  DataTable out(schema_);
  for (const auto& row : rows_) {
    if (keep(row)) out.rows_.push_back(row);
  }
  return out;
}

Result<std::vector<std::vector<double>>> DataTable::NumericMatrix(
    const std::vector<size_t>& cols) const {
  std::vector<std::vector<double>> out(rows_.size(),
                                       std::vector<double>(cols.size()));
  for (size_t r = 0; r < rows_.size(); ++r) {
    for (size_t j = 0; j < cols.size(); ++j) {
      const size_t c = cols[j];
      TRIPRIV_CHECK_LT(c, schema_.size());
      const Value& v = rows_[r][c];
      if (!v.is_numeric()) {
        return Status::InvalidArgument(
            "non-numeric cell at row " + std::to_string(r) + ", column '" +
            schema_.attribute(c).name + "'");
      }
      out[r][j] = v.ToDouble();
    }
  }
  return out;
}

std::string DataTable::ToPrettyString(size_t max_rows) const {
  // Compute column widths over header + shown rows.
  const size_t shown = std::min(max_rows, rows_.size());
  std::vector<size_t> width(schema_.size());
  std::vector<std::vector<std::string>> cells(shown);
  for (size_t c = 0; c < schema_.size(); ++c) {
    width[c] = schema_.attribute(c).name.size();
  }
  for (size_t r = 0; r < shown; ++r) {
    cells[r].resize(schema_.size());
    for (size_t c = 0; c < schema_.size(); ++c) {
      cells[r][c] = rows_[r][c].is_null() ? "*" : rows_[r][c].ToDisplayString();
      width[c] = std::max(width[c], cells[r][c].size());
    }
  }
  std::ostringstream os;
  auto pad = [&](const std::string& s, size_t w) {
    os << s;
    for (size_t i = s.size(); i < w; ++i) os << ' ';
  };
  for (size_t c = 0; c < schema_.size(); ++c) {
    if (c > 0) os << "  ";
    pad(schema_.attribute(c).name, width[c]);
  }
  os << '\n';
  for (size_t c = 0; c < schema_.size(); ++c) {
    if (c > 0) os << "  ";
    os << std::string(width[c], '-');
  }
  os << '\n';
  for (size_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < schema_.size(); ++c) {
      if (c > 0) os << "  ";
      pad(cells[r][c], width[c]);
    }
    os << '\n';
  }
  if (shown < rows_.size()) {
    os << "... (" << rows_.size() - shown << " more rows)\n";
  }
  return os.str();
}

}  // namespace tripriv
