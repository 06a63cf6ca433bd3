// Microaggregation: k-anonymity through aggregation of numeric records.
//
// Implements the two microaggregation flavours the paper leans on:
//   * MDAV (Maximum Distance to Average Vector) — the practical
//     data-oriented multivariate heuristic of Domingo-Ferrer & Mateo-Sanz
//     [10], also used by [12] to prove that microaggregation with minimum
//     group size k over the quasi-identifiers yields k-anonymity;
//   * optimal univariate microaggregation (Hansen-Mukherjee shortest-path
//     dynamic program) — exact minimum within-group SSE for one attribute.
//
// Groups have sizes in [k, 2k-1]; every record's microaggregated attributes
// are replaced by its group centroid.

#pragma once

#include <vector>

#include "table/data_table.h"

namespace tripriv {

class ThreadPool;

/// A masked table plus the group structure that produced it.
struct MicroaggregationResult {
  DataTable table;
  /// group_of_row[r] is the 0-based group id of row r.
  std::vector<size_t> group_of_row;
  size_t num_groups = 0;
  /// Within-group sum of squared errors, measured on standardized data —
  /// the objective microaggregation minimizes (a raw information-loss
  /// figure; see information_loss.h for normalized measures).
  double within_group_sse = 0.0;
};

/// The groups one MDAV run forms over a pool of points.
struct MdavGrouping {
  /// groups[g] lists the point indices of group g in the order MDAV took
  /// them: nearest-first around the group's seed, the remainder group in
  /// pool order.
  std::vector<std::vector<size_t>> groups;
  /// Within-group sum of squared errors on the pool-standardized points.
  double within_group_sse = 0.0;
};

/// The MDAV-generic grouping step over `points[pool[i]]`. The pooled
/// points are column-standardized over the pool (constant columns map to
/// 0) before any distance is taken, so the grouping depends only on the
/// pool, never on points outside it. Requires k >= 1 and a non-empty pool
/// of distinct indices into `points`, all of one dimension (a typed
/// kInvalidArgument otherwise). Every group has size in [k, 2k-1] when the
/// pool holds at least k points; a smaller pool forms one group. Forming
/// one group takes a constant number of passes over the pool plus a
/// partial selection of k keys: linear in the pool for fixed k.
///
/// `workers` (optional) shards the per-iteration distance scans — the
/// farthest-point argmax and the distance fill around each seed — across
/// the pool. The argmax merges per-shard winners in shard order with the
/// serial loop's strict-> tie-break (lowest pool position wins); the fill
/// writes positional slots, and a serial partial selection then takes the
/// k smallest (squared distance, pool position) keys in key order. So the
/// grouping is bit-identical at any thread count.
Result<MdavGrouping> MdavGroups(const std::vector<std::vector<double>>& points,
                                const std::vector<size_t>& pool, size_t k,
                                ThreadPool* workers = nullptr);

/// kInvalidArgument unless every value of `points` is finite. Every
/// grouping driver (MDAV, partitioned and incremental MDAV, Mondrian; the
/// optimal univariate grouping checks its one column the same way) runs it
/// before any sort, standardization or centroid: a NaN key breaks the
/// strict weak order a sort needs, and a NaN column standardizes to zeros
/// and masks to NaN centroids. The message is a constant: no cell reaches
/// it.
Status RequireFinite(const std::vector<std::vector<double>>& points);

/// The release an MDAV grouping defines: `table` with each row's `cols`
/// values replaced by its group's centroid in the original scale, where
/// `raw[r][j]` is row r's value of cols[j] and every row is in exactly one
/// group. Each centroid sums its members in member order; one
/// SetNumericColumn per column then writes the release. Group g of
/// `grouping` is group g of the result.
Result<MicroaggregationResult> ReplaceByCentroids(
    const DataTable& table, const std::vector<size_t>& cols,
    const std::vector<std::vector<double>>& raw, const MdavGrouping& grouping);

/// MDAV-generic over the numeric columns `cols`: `MdavGroups` over every
/// row, then `ReplaceByCentroids`. Requires k >= 1, all `cols` numeric and
/// finite, and at least one row. `workers` shards the distance scans as in
/// `MdavGroups`; the result is bit-identical at any thread count.
Result<MicroaggregationResult> MdavMicroaggregate(
    const DataTable& table, size_t k, const std::vector<size_t>& cols,
    ThreadPool* workers = nullptr);

/// MDAV over the schema's quasi-identifiers (all must be numeric). By [12],
/// the result is k-anonymous on those attributes. (No ThreadPool parameter:
/// a defaulted pointer here would make a braced `{}` column list ambiguous
/// against the overload above — parallel callers pass the QI indices
/// explicitly.)
Result<MicroaggregationResult> MdavMicroaggregate(const DataTable& table,
                                                  size_t k);

/// Optimal univariate microaggregation of `values` (Hansen-Mukherjee):
/// returns the group id per element minimizing total within-group SSE under
/// the size constraint [k, 2k-1]. Group ids follow ascending value order.
/// A NaN or infinite value is kInvalidArgument, as in RequireFinite.
Result<std::vector<size_t>> OptimalUnivariateGroups(
    const std::vector<double>& values, size_t k);

/// Applies optimal univariate microaggregation to one numeric column.
Result<MicroaggregationResult> OptimalUnivariateMicroaggregate(
    const DataTable& table, size_t k, size_t col);

}  // namespace tripriv

