#include "sdc/incremental_mdav.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>

#include "stats/descriptive.h"
#include "util/thread_pool.h"

namespace tripriv {
namespace {

/// Mean of the `cols` values over `member_rows` of `raw` (row-major over
/// cols), in the original scale.
std::vector<double> RawCentroid(const std::vector<std::vector<double>>& raw,
                                const std::vector<size_t>& member_rows) {
  TRIPRIV_CHECK(!member_rows.empty());
  std::vector<double> c(raw[0].size(), 0.0);
  for (size_t r : member_rows) {
    for (size_t j = 0; j < c.size(); ++j) c[j] += raw[r][j];
  }
  for (double& v : c) v /= static_cast<double>(member_rows.size());
  return c;
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
  TRIPRIV_ASSIGN_OR_RETURN(auto raw, base.NumericMatrix(cols));

  // Previous groups that lost or changed a member.
  std::set<size_t> dirty_groups;
  for (uint64_t uid : dirty_uids) {
    auto it = prev_group_of_uid.find(uid);
    if (it != prev_group_of_uid.end()) dirty_groups.insert(it->second);
  }

  // Partition current rows: clean rows keep their previous group; inserted
  // rows and members of dirty groups enter the recluster pool (row order —
  // the determinism anchor).
  std::vector<size_t> pool_rows;
  std::vector<size_t> prev_group(n, SIZE_MAX);
  for (size_t r = 0; r < n; ++r) {
    auto it = prev_group_of_uid.find(uids[r]);
    const bool pooled =
        it == prev_group_of_uid.end() || dirty_groups.count(it->second) > 0;
    if (pooled) {
      pool_rows.push_back(r);
    } else {
      prev_group[r] = it->second;
    }
  }

  // Renumber surviving clean groups 0..m-1 in ascending previous-id order.
  std::set<size_t> kept_ids;
  for (size_t r = 0; r < n; ++r) {
    if (prev_group[r] != SIZE_MAX) kept_ids.insert(prev_group[r]);
  }
  std::unordered_map<size_t, size_t> renumber;
  renumber.reserve(kept_ids.size());
  for (size_t id : kept_ids) {
    const size_t next = renumber.size();
    renumber[id] = next;
  }
  const size_t kept = renumber.size();

  IncrementalMdavResult result;
  result.group_of_row.assign(n, SIZE_MAX);
  result.groups_kept = kept;
  result.rows_reclustered = pool_rows.size();
  for (size_t r = 0; r < n; ++r) {
    if (prev_group[r] != SIZE_MAX) {
      result.group_of_row[r] = renumber[prev_group[r]];
    }
  }
  size_t num_groups = kept;

  if (pool_rows.size() >= k) {
    // A lawful MDAV run over the pool alone; pool group g becomes global
    // group kept + g.
    TRIPRIV_ASSIGN_OR_RETURN(MdavGrouping sub,
                             MdavGroups(raw, pool_rows, k, workers));
    for (size_t g = 0; g < sub.groups.size(); ++g) {
      for (size_t r : sub.groups[g]) result.group_of_row[r] = kept + g;
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
      std::vector<std::vector<size_t>> members(kept);
      for (size_t r = 0; r < n; ++r) {
        if (prev_group[r] != SIZE_MAX) {
          members[result.group_of_row[r]].push_back(r);
        }
      }
      std::vector<std::vector<double>> centroids(kept);
      for (size_t g = 0; g < kept; ++g) centroids[g] = RawCentroid(raw, members[g]);
      for (size_t r : pool_rows) {
        size_t best = 0;
        double best_d = std::numeric_limits<double>::infinity();
        for (size_t g = 0; g < kept; ++g) {
          const double d = SquaredDistance(raw[r], centroids[g]);
          if (d < best_d) {
            best_d = d;
            best = g;
          }
        }
        result.group_of_row[r] = best;
      }
    }
  }
  result.num_groups = num_groups;

  // Final membership, centroid recompute (original scale), and masking.
  std::vector<std::vector<size_t>> members(num_groups);
  for (size_t r = 0; r < n; ++r) {
    TRIPRIV_CHECK(result.group_of_row[r] != SIZE_MAX);
    members[result.group_of_row[r]].push_back(r);
  }
  result.min_group_size = n;
  std::vector<std::vector<double>> masked = raw;
  for (size_t g = 0; g < num_groups; ++g) {
    TRIPRIV_CHECK(!members[g].empty()) << "empty group after maintenance";
    result.min_group_size = std::min(result.min_group_size, members[g].size());
    const auto centroid = RawCentroid(raw, members[g]);
    for (size_t r : members[g]) masked[r] = centroid;
  }
  result.protected_table = base;
  for (size_t j = 0; j < cols.size(); ++j) {
    std::vector<double> col(n);
    for (size_t r = 0; r < n; ++r) col[r] = masked[r][j];
    TRIPRIV_RETURN_IF_ERROR(result.protected_table.SetNumericColumn(cols[j], col));
  }
  return result;
}

}  // namespace tripriv
