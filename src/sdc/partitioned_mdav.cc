#include "sdc/partitioned_mdav.h"

#include <algorithm>
#include <utility>

#include "util/thread_pool.h"

namespace tripriv {
namespace {

/// Column index with the widest value range over `rows` of `matrix`
/// (ties to the lowest column, the Mondrian convention).
size_t WidestColumn(const std::vector<std::vector<double>>& matrix,
                    const std::vector<size_t>& rows) {
  size_t best_col = 0;
  double best_range = -1.0;
  const size_t d = matrix.empty() ? 0 : matrix[0].size();
  for (size_t j = 0; j < d; ++j) {
    double lo = matrix[rows[0]][j];
    double hi = lo;
    for (size_t r : rows) {
      lo = std::min(lo, matrix[r][j]);
      hi = std::max(hi, matrix[r][j]);
    }
    if (hi - lo > best_range) {
      best_range = hi - lo;
      best_col = j;
    }
  }
  return best_col;
}

/// Recursively median-splits `rows` until every partition is at most
/// `max_rows`; appends finished partitions to `out` in split order (left
/// before right), which fixes the partition-major group numbering.
void SplitRows(const std::vector<std::vector<double>>& matrix,
               std::vector<size_t> rows, size_t max_rows,
               std::vector<std::vector<size_t>>* out) {
  if (rows.size() <= max_rows) {
    out->push_back(std::move(rows));
    return;
  }
  const size_t col = WidestColumn(matrix, rows);
  // Rank by (value, row index): the tie-break makes the median cut — and
  // with it every downstream group — a pure function of the data.
  std::sort(rows.begin(), rows.end(), [&](size_t a, size_t b) {
    if (matrix[a][col] != matrix[b][col]) {
      return matrix[a][col] < matrix[b][col];
    }
    return a < b;
  });
  const size_t mid = rows.size() / 2;
  std::vector<size_t> left(rows.begin(), rows.begin() + mid);
  std::vector<size_t> right(rows.begin() + mid, rows.end());
  SplitRows(matrix, std::move(left), max_rows, out);
  SplitRows(matrix, std::move(right), max_rows, out);
}

}  // namespace

Result<MicroaggregationResult> PartitionedMdav(
    const DataTable& table, size_t k, const std::vector<size_t>& cols,
    ThreadPool* workers, size_t max_partition_rows) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (table.num_rows() == 0) {
    return Status::InvalidArgument("cannot microaggregate an empty table");
  }
  if (cols.empty()) return Status::InvalidArgument("no columns given");
  if (max_partition_rows < 2 * k) {
    return Status::InvalidArgument(
        "max_partition_rows must be >= 2k so every partition fits two "
        "groups");
  }
  TRIPRIV_ASSIGN_OR_RETURN(auto matrix, table.NumericMatrix(cols));
  TRIPRIV_RETURN_IF_ERROR(RequireFinite(matrix));

  std::vector<size_t> all(table.num_rows());
  for (size_t r = 0; r < all.size(); ++r) all[r] = r;
  std::vector<std::vector<size_t>> partitions;
  SplitRows(matrix, std::move(all), max_partition_rows, &partitions);

  // Pure per-partition stage: slot p holds the MDAV grouping of partition
  // p, standardized over the partition alone. Each MdavGroups runs serially
  // (ParallelFor does not nest); determinism comes from the per-slot writes
  // and the partition-order merge below.
  std::vector<Result<MdavGrouping>> slots(
      partitions.size(), Status::Internal("partition not processed"));
  const auto run_partitions = [&](size_t /*shard*/, size_t begin, size_t end) {
    for (size_t p = begin; p < end; ++p) {
      slots[p] = MdavGroups(matrix, partitions[p], k);
    }
  };
  if (workers != nullptr) {
    workers->ParallelFor(partitions.size(), run_partitions);
  } else {
    run_partitions(0, 0, partitions.size());
  }

  // Serial merge in partition order, then one masking pass.
  MdavGrouping merged;
  for (Result<MdavGrouping>& slot : slots) {
    TRIPRIV_RETURN_IF_ERROR(slot.status());
    for (std::vector<size_t>& members : slot->groups) {
      merged.groups.push_back(std::move(members));
    }
    merged.within_group_sse += slot->within_group_sse;
  }
  return ReplaceByCentroids(table, cols, matrix, merged);
}

}  // namespace tripriv
