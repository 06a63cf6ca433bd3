#include "sdc/equivalence.h"

#include <cstdint>

namespace tripriv {
namespace {

/// Marks an open-addressing slot that holds no class.
constexpr size_t kEmptySlot = SIZE_MAX;

/// Folds one cell hash into a row hash (splitmix64 finalizer).
uint64_t MixCell(uint64_t h, uint64_t cell) {
  uint64_t x = h ^ (cell + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2));
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Class id of every row, in first-appearance order, from one pass over
/// the rows. An open-addressing table over the row hashes of the QI cells
/// finds a row's class; a candidate class matches when its first row holds
/// equal (Value::operator==) cells. Returns the class count.
size_t LabelClasses(const DataTable& table, const std::vector<size_t>& qi_cols,
                    std::vector<size_t>* class_of_row) {
  for (size_t c : qi_cols) TRIPRIV_CHECK_LT(c, table.num_columns());
  struct Class {
    uint64_t hash;
    const std::vector<Value>* first_row;
  };
  const size_t n = table.num_rows();
  class_of_row->resize(n);
  size_t capacity = 16;
  while (capacity < 2 * n) capacity *= 2;
  std::vector<size_t> slots(capacity, kEmptySlot);
  std::vector<Class> classes;
  for (size_t r = 0; r < n; ++r) {
    const std::vector<Value>& row = table.row(r);
    uint64_t h = 0;
    for (size_t c : qi_cols) h = MixCell(h, row[c].Hash());
    size_t s = static_cast<size_t>(h) & (capacity - 1);
    for (;; s = (s + 1) & (capacity - 1)) {
      const size_t id = slots[s];
      if (id == kEmptySlot) {
        slots[s] = classes.size();
        classes.push_back({h, &row});
        break;
      }
      if (classes[id].hash != h) continue;
      const std::vector<Value>& first = *classes[id].first_row;
      bool same = true;
      for (size_t c : qi_cols) same = same && first[c] == row[c];
      if (same) break;
    }
    (*class_of_row)[r] = slots[s];
  }
  return classes.size();
}

}  // namespace

size_t EquivalenceClasses::MinClassSize() const {
  size_t min = 0;
  for (const auto& cls : classes) {
    if (min == 0 || cls.size() < min) min = cls.size();
  }
  return min;
}

EquivalenceClasses GroupByColumns(const DataTable& table,
                                  const std::vector<size_t>& qi_cols) {
  std::vector<size_t> class_of_row;
  EquivalenceClasses out;
  out.classes.resize(LabelClasses(table, qi_cols, &class_of_row));
  for (size_t r = 0; r < class_of_row.size(); ++r) {
    out.classes[class_of_row[r]].push_back(r);
  }
  return out;
}

std::vector<size_t> ClassSizes(const DataTable& table,
                               const std::vector<size_t>& qi_cols) {
  std::vector<size_t> class_of_row;
  std::vector<size_t> sizes(LabelClasses(table, qi_cols, &class_of_row), 0);
  for (size_t id : class_of_row) ++sizes[id];
  return sizes;
}

EquivalenceClasses GroupByQuasiIdentifiers(const DataTable& table) {
  return GroupByColumns(table, table.schema().QuasiIdentifierIndices());
}

}  // namespace tripriv
