#include "sdc/incremental_mdav.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>

#include "util/thread_pool.h"

namespace tripriv {
namespace {

/// Squared distance between two d-dimensional points, summed in
/// coordinate order.
double SquaredDistanceOf(const double* a, const double* b, size_t d) {
  double s = 0;
  for (size_t j = 0; j < d; ++j) {
    const double diff = a[j] - b[j];
    s += diff * diff;
  }
  return s;
}

/// Means in the original scale of the groups 0..num_groups-1 over the
/// row-major `raw` (d values per row), row-major by group; rows whose group
/// is SIZE_MAX take no part. One pass in ascending row order, so every
/// group sums its members in row order. `sizes` receives the group sizes.
std::vector<double> GroupMeans(const std::vector<double>& raw, size_t d,
                               const std::vector<size_t>& group_of_row,
                               size_t num_groups, std::vector<size_t>* sizes) {
  std::vector<double> means(num_groups * d, 0.0);
  sizes->assign(num_groups, 0);
  for (size_t r = 0; r < group_of_row.size(); ++r) {
    const size_t g = group_of_row[r];
    if (g == SIZE_MAX) continue;
    ++(*sizes)[g];
    for (size_t j = 0; j < d; ++j) means[g * d + j] += raw[r * d + j];
  }
  for (size_t g = 0; g < num_groups; ++g) {
    for (size_t j = 0; j < d; ++j) {
      means[g * d + j] /= static_cast<double>((*sizes)[g]);
    }
  }
  return means;
}

}  // namespace

Result<IncrementalMdavResult> IncrementalMdav(
    const DataTable& base, const std::vector<uint64_t>& uids,
    const std::vector<size_t>& cols, size_t k,
    const std::unordered_map<uint64_t, size_t>& prev_group_of_uid,
    const std::vector<uint64_t>& dirty_uids, ThreadPool* workers) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (base.num_rows() == 0) {
    return Status::InvalidArgument("cannot maintain an empty table");
  }
  if (uids.size() != base.num_rows()) {
    return Status::InvalidArgument("uid vector does not match table rows");
  }
  if (cols.empty()) return Status::InvalidArgument("no columns to maintain");

  const size_t n = base.num_rows();
  const size_t d = cols.size();
  // The maintained columns, row-major: raw[r * d + j] is cols[j] of row r.
  std::vector<double> raw(n * d);
  for (size_t j = 0; j < d; ++j) {
    Result<std::vector<double>> column = base.NumericColumn(cols[j]);
    if (!column.ok()) {
      // Name the first non-numeric cell in row order, as a row-major read
      // of the columns does.
      return base.NumericMatrix(cols).status();
    }
    for (size_t r = 0; r < n; ++r) raw[r * d + j] = (*column)[r];
  }

  // Previous group of a uid, SIZE_MAX when it had none. Previous ids index
  // a dense array below; every previous group had a member, so a lawful id
  // is below the previous row count, and any other id is refused.
  const size_t prev_rows = prev_group_of_uid.size();
  bool id_out_of_range = false;
  auto prev_group = [&prev_group_of_uid, prev_rows,
                     &id_out_of_range](uint64_t uid) -> size_t {
    auto it = prev_group_of_uid.find(uid);
    if (it == prev_group_of_uid.end()) return SIZE_MAX;
    if (it->second >= prev_rows) {
      id_out_of_range = true;
      return SIZE_MAX;
    }
    return it->second;
  };

  // Previous groups that lost or changed a member, sorted and unique.
  std::vector<size_t> dirty_groups;
  for (uint64_t uid : dirty_uids) {
    const size_t group = prev_group(uid);
    if (group != SIZE_MAX) dirty_groups.push_back(group);
  }
  std::sort(dirty_groups.begin(), dirty_groups.end());
  dirty_groups.erase(std::unique(dirty_groups.begin(), dirty_groups.end()),
                     dirty_groups.end());

  // Partition current rows: clean rows keep their previous group; inserted
  // rows and members of dirty groups enter the recluster pool (row order —
  // the determinism anchor).
  IncrementalMdavResult result;
  result.group_of_row.assign(n, SIZE_MAX);
  std::vector<size_t> pool_rows;
  std::vector<size_t> kept_id(prev_rows, SIZE_MAX);  // previous id -> kept id
  for (size_t r = 0; r < n; ++r) {
    const size_t group = prev_group(uids[r]);
    if (group == SIZE_MAX || std::binary_search(dirty_groups.begin(),
                                                dirty_groups.end(), group)) {
      pool_rows.push_back(r);
    } else {
      kept_id[group] = 0;
      result.group_of_row[r] = group;
    }
  }
  if (id_out_of_range) {
    return Status::InvalidArgument("previous group id out of range");
  }
  // The pooled points, refused when one is not finite. Every inserted or
  // updated row is pooled, and the bootstrap pools every row, so checking
  // the pool keeps every epoch finite at O(change) cost.
  std::vector<std::vector<double>> points(pool_rows.size());
  for (size_t i = 0; i < pool_rows.size(); ++i) {
    const double* p = raw.data() + pool_rows[i] * d;
    points[i].assign(p, p + d);
  }
  TRIPRIV_RETURN_IF_ERROR(RequireFinite(points));

  // Renumber surviving clean groups 0..m-1 in ascending previous-id order.
  size_t kept = 0;
  for (size_t& id : kept_id) {
    if (id != SIZE_MAX) id = kept++;
  }
  for (size_t& group : result.group_of_row) {
    if (group != SIZE_MAX) group = kept_id[group];
  }
  result.groups_kept = kept;
  result.rows_reclustered = pool_rows.size();
  size_t num_groups = kept;

  if (pool_rows.size() >= k) {
    // A lawful MDAV run over the pool alone; pool group g becomes global
    // group kept + g. MdavGroups sees only the pooled points, at their pool
    // positions, so its row-order tie-breaks are unchanged.
    std::vector<size_t> positions(pool_rows.size());
    std::iota(positions.begin(), positions.end(), 0);
    TRIPRIV_ASSIGN_OR_RETURN(MdavGrouping sub,
                             MdavGroups(points, positions, k, workers));
    for (size_t g = 0; g < sub.groups.size(); ++g) {
      for (size_t i : sub.groups[g]) result.group_of_row[pool_rows[i]] = kept + g;
    }
    num_groups = kept + sub.groups.size();
  } else if (!pool_rows.empty()) {
    if (kept == 0) {
      // The whole table is the pool and it is smaller than k: one
      // degenerate group. The flip gate refuses this candidate unless
      // n >= k, which cannot hold here.
      for (size_t r : pool_rows) result.group_of_row[r] = 0;
      num_groups = 1;
    } else {
      // Residual pool < k: absorb each row into the nearest clean group
      // (groups only grow, so their k-guarantee is preserved). Centroids
      // are the clean groups' raw means; ties break on the lowest id.
      std::vector<size_t> sizes;
      const std::vector<double> centroids =
          GroupMeans(raw, d, result.group_of_row, kept, &sizes);
      for (size_t r : pool_rows) {
        size_t best = 0;
        double best_d = std::numeric_limits<double>::infinity();
        for (size_t g = 0; g < kept; ++g) {
          const double dist = SquaredDistanceOf(raw.data() + r * d,
                                                centroids.data() + g * d, d);
          if (dist < best_d) {
            best_d = dist;
            best = g;
          }
        }
        result.group_of_row[r] = best;
      }
    }
  }
  result.num_groups = num_groups;

  // Final sizes and centroids (original scale), then masking.
  for (size_t group : result.group_of_row) TRIPRIV_CHECK(group != SIZE_MAX);
  std::vector<size_t> sizes;
  const std::vector<double> centroids =
      GroupMeans(raw, d, result.group_of_row, num_groups, &sizes);
  result.min_group_size = n;
  for (size_t size : sizes) {
    TRIPRIV_CHECK(size > 0) << "empty group after maintenance";
    result.min_group_size = std::min(result.min_group_size, size);
  }
  result.protected_table = base;
  std::vector<double> column(n);
  for (size_t j = 0; j < d; ++j) {
    for (size_t r = 0; r < n; ++r) {
      column[r] = centroids[result.group_of_row[r] * d + j];
    }
    TRIPRIV_RETURN_IF_ERROR(
        result.protected_table.SetNumericColumn(cols[j], column));
  }
  return result;
}

}  // namespace tripriv
