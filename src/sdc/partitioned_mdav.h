// Partitioned MDAV: census-scale microaggregation.
//
// Plain MDAV is O(n^2 / k) distance work — perfect at survey scale,
// infeasible at the 10^6-row census runs the empirical Table 2 scoreboard
// measures. The standard scaling trick (the blocking used by large-scale
// SDC packages) is applied here: recursively median-split the table on the
// widest-range attribute (the Mondrian split rule) until every partition
// holds at most `max_partition_rows` records, then run exact MDAV inside
// each partition independently. Every group still has size in [k, 2k-1],
// so the release is k-anonymous on the microaggregated columns exactly as
// with plain MDAV; only the grouping objective is approximated (records
// never cross a partition boundary to join a closer group).
//
// The QI matrix is read once. Each partition is grouped in place by
// `MdavGroups` over its row list (standardized over the partition alone),
// and the merged grouping is masked once by `ReplaceByCentroids`, MDAV's
// own centroid step.
//
// Determinism: the split ranks ties by row index, partitions are grouped
// through ParallelFor with one result slot each, merged in partition order,
// and each grouping is the serial exact algorithm — the output table is
// byte-identical at 0/1/2/8 threads.

#pragma once

#include <vector>

#include "sdc/microaggregation.h"
#include "table/data_table.h"

namespace tripriv {

class ThreadPool;

/// MDAV with median-split partitioning (see file comment). Requires k >= 1,
/// all `cols` numeric and finite, at least one row, and
/// max_partition_rows >= 2k (a partition must be able to hold two groups,
/// or splitting it could strand fewer than k records). Groups are numbered
/// partition-major, so group_of_row is stable across thread counts.
/// within_group_sse is the sum of the per-partition standardized SSEs.
Result<MicroaggregationResult> PartitionedMdav(
    const DataTable& table, size_t k, const std::vector<size_t>& cols,
    ThreadPool* workers = nullptr, size_t max_partition_rows = 2048);

}  // namespace tripriv
