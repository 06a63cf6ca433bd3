#include "sdc/microaggregation.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "stats/descriptive.h"
#include "util/thread_pool.h"

namespace tripriv {
namespace {

/// Distance scans over pools smaller than this stay serial: the fork/join
/// handoff costs more than the scan.
constexpr size_t kMinParallelPoolSize = 4096;

/// Marks a pool slot whose point has joined a group.
constexpr size_t kTaken = SIZE_MAX;

/// True when `workers` should shard a scan over `n` pool elements.
bool UsePool(const ThreadPool* workers, size_t n) {
  return workers != nullptr && workers->num_threads() > 1 &&
         n >= kMinParallelPoolSize;
}

/// n points of dimension d, row-major in one contiguous buffer.
class PointMatrix {
 public:
  PointMatrix(size_t n, size_t dims) : dims_(dims), values_(n * dims) {}

  size_t dims() const { return dims_; }
  const double* point(size_t i) const { return values_.data() + i * dims_; }
  double* point(size_t i) { return values_.data() + i * dims_; }

 private:
  size_t dims_;
  std::vector<double> values_;
};

/// Squared Euclidean distance between two d-dimensional points, summed in
/// coordinate order.
double SquaredDistanceOf(const double* a, const double* b, size_t d) {
  double s = 0;
  for (size_t j = 0; j < d; ++j) {
    const double diff = a[j] - b[j];
    s += diff * diff;
  }
  return s;
}

/// Copies `points[pool[i]]` to row i and column-standardizes over the pool
/// (constant columns are left centered at 0).
PointMatrix StandardizedPool(const std::vector<std::vector<double>>& points,
                             const std::vector<size_t>& pool) {
  const size_t n = pool.size();
  const size_t d = points[pool[0]].size();
  PointMatrix m(n, d);
  std::vector<double> col(n);
  for (size_t j = 0; j < d; ++j) {
    for (size_t i = 0; i < n; ++i) col[i] = points[pool[i]][j];
    const double mean = Mean(col);
    const double sd = n >= 2 ? SampleStddev(col) : 0.0;
    for (size_t i = 0; i < n; ++i) {
      m.point(i)[j] = sd > 0.0 ? (col[i] - mean) / sd : 0.0;
    }
  }
  return m;
}

/// Centroid of the points at `idx`, summed in `idx` order.
std::vector<double> CentroidOf(const PointMatrix& m,
                               const std::vector<size_t>& idx) {
  TRIPRIV_CHECK(!idx.empty());
  std::vector<double> c(m.dims(), 0.0);
  for (size_t i : idx) {
    const double* p = m.point(i);
    for (size_t j = 0; j < c.size(); ++j) c[j] += p[j];
  }
  for (double& v : c) v /= static_cast<double>(idx.size());
  return c;
}

/// Index (into `pool`) of the element of `pool` farthest from `point`.
/// The strict `>` keeps the FIRST pool index among equal distances — the
/// tie-break the parallel path reproduces by merging per-shard winners in
/// shard order (shards are contiguous and ascending, so the earliest shard
/// holding the maximum wins, i.e. the lowest index).
size_t FarthestFrom(const PointMatrix& m, const std::vector<size_t>& pool,
                    const double* point, ThreadPool* workers) {
  auto scan = [&m, &pool, point](size_t begin, size_t end, size_t* best,
                                 double* best_d) {
    for (size_t i = begin; i < end; ++i) {
      const double d = SquaredDistanceOf(m.point(pool[i]), point, m.dims());
      if (d > *best_d) {
        *best_d = d;
        *best = i;
      }
    }
  };
  if (!UsePool(workers, pool.size())) {
    size_t best = 0;
    double best_d = -1.0;
    scan(0, pool.size(), &best, &best_d);
    return best;
  }
  const size_t shards = workers->NumShards(pool.size());
  std::vector<size_t> shard_best(shards, 0);
  std::vector<double> shard_best_d(shards, -1.0);
  workers->ParallelFor(pool.size(), [&scan, &shard_best, &shard_best_d](
                                        size_t shard, size_t begin,
                                        size_t end) {
    shard_best[shard] = begin;
    scan(begin, end, &shard_best[shard], &shard_best_d[shard]);
  });
  size_t best = shard_best[0];
  double best_d = shard_best_d[0];
  for (size_t s = 1; s < shards; ++s) {
    if (shard_best_d[s] > best_d) {
      best_d = shard_best_d[s];
      best = shard_best[s];
    }
  }
  return best;
}

/// Removes from `pool` the point at pool-index `seed_pos` and its k-1
/// nearest pool neighbours; returns them nearest-first. `by_dist` is
/// scratch reused across calls.
std::vector<size_t> TakeGroupAround(
    const PointMatrix& m, std::vector<size_t>* pool, size_t seed_pos,
    size_t k, ThreadPool* workers,
    std::vector<std::pair<double, size_t>>* by_dist) {
  const size_t n = pool->size();
  const double* seed = m.point((*pool)[seed_pos]);
  // Key every pool element by (squared distance to the seed, pool index).
  // The fill writes positional slots (parallel-safe); the selection stays
  // serial and ties break on the pool index, so the group is thread-count
  // independent.
  by_dist->resize(n);
  auto fill = [&m, pool, seed, by_dist](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      (*by_dist)[i] = {SquaredDistanceOf(m.point((*pool)[i]), seed, m.dims()),
                       i};
    }
  };
  if (!UsePool(workers, n)) {
    fill(0, n);
  } else {
    workers->ParallelFor(n, [&fill](size_t, size_t begin, size_t end) {
      fill(begin, end);
    });
  }
  // The k smallest keys in key order: the same members, in the same order,
  // as the head of a full sort, without ordering the rest of the pool.
  const size_t take = std::min(k, n);
  std::partial_sort(by_dist->begin(), by_dist->begin() + take, by_dist->end());
  std::vector<size_t> group(take);
  for (size_t i = 0; i < take; ++i) {
    size_t& slot = (*pool)[(*by_dist)[i].second];
    group[i] = slot;
    slot = kTaken;
  }
  // Stable in-place compaction: the rest keep their relative order.
  pool->erase(std::remove(pool->begin(), pool->end(), kTaken), pool->end());
  return group;
}

}  // namespace

Result<MdavGrouping> MdavGroups(const std::vector<std::vector<double>>& points,
                                const std::vector<size_t>& pool, size_t k,
                                ThreadPool* workers) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (pool.empty()) {
    return Status::InvalidArgument("cannot group an empty pool");
  }
  for (size_t i : pool) {
    if (i >= points.size() || points[i].size() != points[pool[0]].size()) {
      return Status::InvalidArgument(
          "pool names a missing point or points differ in dimension");
    }
  }
  const PointMatrix m = StandardizedPool(points, pool);

  // `remaining` holds rows of `m`; it stays in ascending order, so a pool
  // index tie-break is also a row tie-break.
  std::vector<size_t> remaining(pool.size());
  std::iota(remaining.begin(), remaining.end(), 0);
  std::vector<std::vector<size_t>> groups;
  std::vector<std::pair<double, size_t>> by_dist;

  // MDAV-generic main loop: two groups per round while at least 3k points
  // remain, one more once fewer do, until under 2k points are left.
  while (remaining.size() >= 2 * k) {
    const bool two_groups = remaining.size() >= 3 * k;
    const auto centroid = CentroidOf(m, remaining);
    const size_t far1 = FarthestFrom(m, remaining, centroid.data(), workers);
    const size_t far1_row = remaining[far1];
    groups.push_back(
        TakeGroupAround(m, &remaining, far1, k, workers, &by_dist));
    if (two_groups) {
      // Point farthest from the first extreme.
      const size_t far2 =
          FarthestFrom(m, remaining, m.point(far1_row), workers);
      groups.push_back(
          TakeGroupAround(m, &remaining, far2, k, workers, &by_dist));
    }
  }
  groups.push_back(std::move(remaining));  // the last 1..2k-1 points

  MdavGrouping grouping;
  for (std::vector<size_t>& members : groups) {
    const auto centroid = CentroidOf(m, members);
    for (size_t& i : members) {
      grouping.within_group_sse +=
          SquaredDistanceOf(m.point(i), centroid.data(), m.dims());
      i = pool[i];
    }
  }
  grouping.groups = std::move(groups);
  return grouping;
}

Status RequireFinite(const std::vector<std::vector<double>>& points) {
  for (const std::vector<double>& point : points) {
    for (double v : point) {
      if (!std::isfinite(v)) {
        return Status::InvalidArgument("a grouped value is NaN or infinite");
      }
    }
  }
  return Status::OK();
}

Result<MicroaggregationResult> ReplaceByCentroids(
    const DataTable& table, const std::vector<size_t>& cols,
    const std::vector<std::vector<double>>& raw, const MdavGrouping& grouping) {
  const size_t n = table.num_rows();
  MicroaggregationResult result;
  result.table = table;
  result.group_of_row.assign(n, 0);
  result.num_groups = grouping.groups.size();
  result.within_group_sse = grouping.within_group_sse;
  for (size_t g = 0; g < grouping.groups.size(); ++g) {
    for (size_t row : grouping.groups[g]) result.group_of_row[row] = g;
  }
  std::vector<double> masked(n);
  for (size_t j = 0; j < cols.size(); ++j) {
    for (const std::vector<size_t>& members : grouping.groups) {
      double sum = 0.0;
      for (size_t row : members) sum += raw[row][j];
      const double centroid = sum / static_cast<double>(members.size());
      for (size_t row : members) masked[row] = centroid;
    }
    TRIPRIV_RETURN_IF_ERROR(result.table.SetNumericColumn(cols[j], masked));
  }
  return result;
}

Result<MicroaggregationResult> MdavMicroaggregate(
    const DataTable& table, size_t k, const std::vector<size_t>& cols,
    ThreadPool* workers) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (table.num_rows() == 0) {
    return Status::InvalidArgument("cannot microaggregate an empty table");
  }
  if (cols.empty()) {
    return Status::InvalidArgument("no columns to microaggregate");
  }
  TRIPRIV_ASSIGN_OR_RETURN(auto raw, table.NumericMatrix(cols));
  TRIPRIV_RETURN_IF_ERROR(RequireFinite(raw));
  std::vector<size_t> rows(table.num_rows());
  std::iota(rows.begin(), rows.end(), 0);
  TRIPRIV_ASSIGN_OR_RETURN(MdavGrouping grouping,
                           MdavGroups(raw, rows, k, workers));
  return ReplaceByCentroids(table, cols, raw, grouping);
}

Result<MicroaggregationResult> MdavMicroaggregate(const DataTable& table,
                                                  size_t k) {
  const auto qi = table.schema().QuasiIdentifierIndices();
  if (qi.empty()) {
    return Status::FailedPrecondition("schema declares no quasi-identifiers");
  }
  return MdavMicroaggregate(table, k, qi);
}

Result<std::vector<size_t>> OptimalUnivariateGroups(
    const std::vector<double>& values, size_t k) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  const size_t n = values.size();
  if (n == 0) return Status::InvalidArgument("empty input");
  for (double v : values) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument("a grouped value is NaN or infinite");
    }
  }
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return values[a] < values[b]; });

  // Hansen-Mukherjee: shortest path over sorted prefixes. cost[i] = minimal
  // SSE of grouping the first i sorted elements; the last group has size
  // g in [k, 2k-1].
  std::vector<double> prefix(n + 1, 0.0);
  std::vector<double> prefix_sq(n + 1, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const double v = values[order[i]];
    prefix[i + 1] = prefix[i] + v;
    prefix_sq[i + 1] = prefix_sq[i] + v * v;
  }
  auto group_sse = [&](size_t lo, size_t hi) {  // sorted elements [lo, hi)
    const double cnt = static_cast<double>(hi - lo);
    const double sum = prefix[hi] - prefix[lo];
    return (prefix_sq[hi] - prefix_sq[lo]) - sum * sum / cnt;
  };

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> cost(n + 1, kInf);
  std::vector<size_t> prev(n + 1, 0);
  cost[0] = 0.0;
  for (size_t i = k; i <= n; ++i) {
    const size_t g_max = std::min(i, 2 * k - 1);
    for (size_t g = k; g <= g_max; ++g) {
      const size_t j = i - g;
      if (cost[j] == kInf) continue;
      // A valid predecessor must itself be partitionable: j == 0 or j >= k.
      if (j != 0 && j < k) continue;
      const double c = cost[j] + group_sse(j, i);
      if (c < cost[i]) {
        cost[i] = c;
        prev[i] = j;
      }
    }
  }
  if (cost[n] == kInf) {
    // n < k: a single group of everything is the only option.
    std::vector<size_t> all(n, 0);
    return all;
  }
  // Recover boundaries, then map back to original indices.
  std::vector<size_t> boundaries;
  for (size_t i = n; i > 0; i = prev[i]) boundaries.push_back(i);
  std::reverse(boundaries.begin(), boundaries.end());
  std::vector<size_t> group_of(n, 0);
  size_t start = 0;
  for (size_t g = 0; g < boundaries.size(); ++g) {
    for (size_t pos = start; pos < boundaries[g]; ++pos) {
      group_of[order[pos]] = g;
    }
    start = boundaries[g];
  }
  return group_of;
}

Result<MicroaggregationResult> OptimalUnivariateMicroaggregate(
    const DataTable& table, size_t k, size_t col) {
  TRIPRIV_ASSIGN_OR_RETURN(auto values, table.NumericColumn(col));
  TRIPRIV_ASSIGN_OR_RETURN(auto groups, OptimalUnivariateGroups(values, k));
  MicroaggregationResult result;
  result.table = table;
  result.group_of_row = groups;
  result.num_groups = *std::max_element(groups.begin(), groups.end()) + 1;
  // Replace by group means; SSE measured on standardized values.
  std::vector<double> sums(result.num_groups, 0.0);
  std::vector<double> counts(result.num_groups, 0.0);
  for (size_t r = 0; r < values.size(); ++r) {
    sums[groups[r]] += values[r];
    counts[groups[r]] += 1.0;
  }
  std::vector<double> masked(values.size());
  for (size_t r = 0; r < values.size(); ++r) {
    masked[r] = sums[groups[r]] / counts[groups[r]];
  }
  const double sd = values.size() >= 2 ? SampleStddev(values) : 0.0;
  for (size_t r = 0; r < values.size(); ++r) {
    const double d = sd > 0.0 ? (values[r] - masked[r]) / sd : 0.0;
    result.within_group_sse += d * d;
  }
  TRIPRIV_RETURN_IF_ERROR(result.table.SetNumericColumn(col, masked));
  return result;
}

}  // namespace tripriv
