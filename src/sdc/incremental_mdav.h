// Incremental MDAV maintenance for the epoch-versioned protected database.
//
// A full MDAV pass is O(n^2/k) distance scans; re-running it on every epoch
// flip would make write throughput collapse with table size even when a
// batch touches a handful of records. The maintainer re-clusters only the
// *dirty* part of the table instead:
//
//   * a group is dirty when it gained no one but LOST or CHANGED a member
//     (a deleted or updated uid belonged to it) — its centroid and size
//     guarantees are stale;
//   * the recluster pool is every member of a dirty group plus every
//     inserted row; clean groups keep their membership untouched, so their
//     rows' masked values are provably identical to the previous epoch's;
//   * the pool is re-grouped by a fresh MDAV run (`MdavGroups` over the
//     pooled rows, standardized over the pool) when it holds at least k
//     records. A residual pool smaller than k cannot form a lawful group,
//     so its rows are absorbed into the nearest clean group by centroid
//     distance (deterministic: lowest group id wins ties) — the group only
//     grows, so k-anonymity is preserved;
//   * group centroids are recomputed in the original scale for ALL final
//     groups — for an untouched group this reproduces the previous values
//     exactly (same members, same mean).
//
// The maintainer itself never *emits* an under-k group except when the
// whole table has fewer than k rows; the epoch flip's fail-closed gate
// still re-verifies min group size and k-anonymity on the candidate table
// independently (defense in depth — see service/epoch_service.h).
//
// Determinism: the pool is ordered by row index, MdavGroups' parallel
// distance scans are bit-identical at any thread count (see
// microaggregation.h), and nearest-group absorption breaks ties on the
// lowest group id — the grouping is a pure function of the inputs.

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sdc/microaggregation.h"
#include "table/data_table.h"

namespace tripriv {

class ThreadPool;

/// Output of one maintenance pass.
struct IncrementalMdavResult {
  /// group_of_row[r] is the 0-based group of base row r; groups have size
  /// in [k, ...] except the n < k degenerate case (gate refuses it).
  std::vector<size_t> group_of_row;
  size_t num_groups = 0;
  /// Base table with the `cols` attributes replaced by group centroids.
  DataTable protected_table;
  /// Rows that went through the recluster pool (the incremental work).
  size_t rows_reclustered = 0;
  /// Previous groups adopted untouched.
  size_t groups_kept = 0;
  /// Smallest final group — what the respondent-privacy gate checks
  /// against k.
  size_t min_group_size = 0;
};

/// Re-clusters only the dirty part of `base`; see file comment.
///
/// `uids[i]` is the stable id of base row `i` (post-mutation membership).
/// `prev_group_of_uid` maps every uid of the PREVIOUS epoch to its group id
/// there (empty on bootstrap: everything is pooled and this is a full MDAV
/// run); an epoch has no more groups than rows, so an id at or above the
/// map's size is kInvalidArgument. `dirty_uids` are the batch's inserted,
/// updated, and deleted uids — deleted uids are naturally absent from
/// `uids` but mark their previous group dirty. A pooled row with a NaN or
/// infinite `cols` value is kInvalidArgument (see RequireFinite). `workers`
/// shards the MDAV distance scans (bit-identical at any thread count).
Result<IncrementalMdavResult> IncrementalMdav(
    const DataTable& base, const std::vector<uint64_t>& uids,
    const std::vector<size_t>& cols, size_t k,
    const std::unordered_map<uint64_t, size_t>& prev_group_of_uid,
    const std::vector<uint64_t>& dirty_uids, ThreadPool* workers = nullptr);

}  // namespace tripriv
