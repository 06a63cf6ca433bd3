// Aggregate-release attacks after Nussbaum & Segal (arXiv 1905.11694):
// query-size restriction and bucketized summaries do not stop an adversary
// with ordering knowledge.
//
//   * RunMinMaxQueryAttack — the statistical database enforces the classic
//     query-size restriction: every MIN/MAX query must cover at least k
//     records. The adversary knows the records' order along one
//     quasi-identifier (external knowledge: ages, salaries and the like
//     sort people publicly) and slides length-k windows along that order,
//     differencing consecutive answers. Whenever the departing record held
//     the window's minimum (or maximum), its confidential value is exposed
//     exactly — the restriction bounds one query, not the intersection of
//     two.
//
//   * RunBucketReconstructionAttack — the release is per-bucket
//     (min, max, mean) summaries, the bucketization a microaggregation or
//     histogram scheme produced. The adversary additionally knows each
//     record's rank within its bucket and reconstructs: rank-extremes get
//     the published min/max verbatim, interior records the mean. On small
//     buckets this recovers most values within a tight window.
//
// Both attacks refuse, with kInvalidArgument, a window_percent outside
// [0, 100] (NaN included) and a column index past the width of a table it
// is read from (order_col from the original, target_col from both) before
// reading any column.
//
// Both attacks compare reconstructions against the ORIGINAL values, so
// running them over a protected release (noise, rank swap) measures
// how much of the channel the protection actually closes. Oracles answer
// from the RELEASED table only — the attack code never touches original
// confidential values except to score success.

#pragma once

#include <cstddef>
#include <vector>

#include "attack/attack.h"
#include "table/data_table.h"

namespace tripriv {
namespace attack {

struct MinMaxQueryConfig {
  /// Column whose order the adversary knows (auxiliary knowledge).
  size_t order_col = 0;
  /// Confidential column the MIN/MAX oracle aggregates.
  size_t target_col = 0;
  /// Query-size restriction: every window covers exactly this many rows.
  size_t window = 5;
  /// Success tolerance as a percentage of the target column's range.
  double window_percent = 1.0;
};

/// Sliding min/max differencing; `original` and `released` must be
/// row-aligned (`released` may be the same table for an unprotected API).
/// Outcome: trials = rows, successes = rows whose value the differencing
/// pins within tolerance; equivocation = mean bits over rows (0 for pinned
/// rows, log2(window) for rows the windows never isolated).
Result<AttackOutcome> RunMinMaxQueryAttack(const DataTable& original,
                                           const DataTable& released,
                                           const MinMaxQueryConfig& config,
                                           const AttackContext& ctx);

struct BucketReconstructionConfig {
  /// Confidential column the per-bucket summaries describe.
  size_t target_col = 0;
  /// Success tolerance as a percentage of the target column's range.
  double window_percent = 1.0;
};

/// Reconstruction from per-bucket (min, max, mean) summaries of `released`
/// under within-bucket rank knowledge. `bucket_of_row[i]` assigns row i to
/// its bucket (e.g. microaggregation group ids); buckets need not be
/// contiguous. Outcome: trials = rows, successes = reconstructions within
/// tolerance of the original; equivocation = 0 bits for rank-extreme rows,
/// log2(bucket interior size) otherwise.
Result<AttackOutcome> RunBucketReconstructionAttack(
    const DataTable& original, const DataTable& released,
    const std::vector<size_t>& bucket_of_row,
    const BucketReconstructionConfig& config, const AttackContext& ctx);

}  // namespace attack
}  // namespace tripriv
