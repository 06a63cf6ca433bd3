// The census releases against the builders they replaced.
//
// PartitionedMdav groups each partition in place (`MdavGroups` over the
// partition's row list) and masks the whole table once through
// `ReplaceByCentroids`. It replaced a builder that copied every partition
// into a table of its own, ran `MdavMicroaggregate` on the copy, and wrote
// each masked cell back with `Set` — and that handed a table no larger than
// one partition, with the pool, straight to `MdavMicroaggregate`. Mondrian
// takes its columns as an argument; the census release used to relabel a
// copy of the table so that every numeric column became a quasi-identifier.
// Both replaced paths are kept here as references: the new builders must
// reproduce their tables, groupings, SSE bits and refusals exactly, at
// 0/1/2/8 threads.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sdc/microaggregation.h"
#include "sdc/mondrian.h"
#include "sdc/partitioned_mdav.h"
#include "table/datasets.h"
#include "util/thread_pool.h"

namespace tripriv {
namespace {

// --- The replaced per-partition-table builder ------------------------------

size_t ReferenceWidestColumn(const std::vector<std::vector<double>>& matrix,
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

void ReferenceSplitRows(const std::vector<std::vector<double>>& matrix,
                        std::vector<size_t> rows, size_t max_rows,
                        std::vector<std::vector<size_t>>* out) {
  if (rows.size() <= max_rows) {
    out->push_back(std::move(rows));
    return;
  }
  const size_t col = ReferenceWidestColumn(matrix, rows);
  std::sort(rows.begin(), rows.end(), [&](size_t a, size_t b) {
    if (matrix[a][col] != matrix[b][col]) {
      return matrix[a][col] < matrix[b][col];
    }
    return a < b;
  });
  const size_t mid = rows.size() / 2;
  std::vector<size_t> left(rows.begin(), rows.begin() + mid);
  std::vector<size_t> right(rows.begin() + mid, rows.end());
  ReferenceSplitRows(matrix, std::move(left), max_rows, out);
  ReferenceSplitRows(matrix, std::move(right), max_rows, out);
}

Result<MicroaggregationResult> ReferencePartitionedMdav(
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
  if (table.num_rows() <= max_partition_rows) {
    return MdavMicroaggregate(table, k, cols, workers);
  }
  TRIPRIV_ASSIGN_OR_RETURN(auto matrix, table.NumericMatrix(cols));
  std::vector<size_t> all(table.num_rows());
  for (size_t r = 0; r < all.size(); ++r) all[r] = r;
  std::vector<std::vector<size_t>> partitions;
  ReferenceSplitRows(matrix, std::move(all), max_partition_rows, &partitions);

  std::vector<Result<MicroaggregationResult>> slots;
  for (size_t p = 0; p < partitions.size(); ++p) {
    slots.emplace_back(MdavMicroaggregate(table.SelectRows(partitions[p]), k,
                                          cols, nullptr));
  }
  MicroaggregationResult merged;
  merged.table = table;
  merged.group_of_row.assign(table.num_rows(), 0);
  for (size_t p = 0; p < partitions.size(); ++p) {
    TRIPRIV_RETURN_IF_ERROR(slots[p].status());
    const MicroaggregationResult& part = *slots[p];
    const std::vector<size_t>& rows = partitions[p];
    for (size_t i = 0; i < rows.size(); ++i) {
      merged.group_of_row[rows[i]] = merged.num_groups + part.group_of_row[i];
      for (size_t c : cols) {
        TRIPRIV_RETURN_IF_ERROR(
            merged.table.Set(rows[i], c, part.table.at(i, c)));
      }
    }
    merged.num_groups += part.num_groups;
    merged.within_group_sse += part.within_group_sse;
  }
  return merged;
}

// --- The replaced relabel-then-Mondrian path -------------------------------

/// The census table with every numeric column promoted to quasi-identifier
/// and the categorical QIs demoted to non-confidential.
DataTable ReferenceMondrianView(const DataTable& original) {
  std::vector<Attribute> attrs = original.schema().attributes();
  for (Attribute& attr : attrs) {
    if (attr.type == AttributeType::kCategorical) {
      if (attr.role == AttributeRole::kQuasiIdentifier) {
        attr.role = AttributeRole::kNonConfidential;
      }
    } else {
      attr.role = AttributeRole::kQuasiIdentifier;
    }
  }
  DataTable view((Schema(std::move(attrs))));
  for (size_t r = 0; r < original.num_rows(); ++r) {
    EXPECT_TRUE(view.AppendRow(original.row(r)).ok());
  }
  return view;
}

// --- Helpers ---------------------------------------------------------------

std::vector<size_t> NumericQiCols(const DataTable& t) {
  std::vector<size_t> out;
  for (size_t c : t.schema().QuasiIdentifierIndices()) {
    if (t.schema().attribute(c).type != AttributeType::kCategorical) {
      out.push_back(c);
    }
  }
  return out;
}

std::vector<size_t> NumericCols(const DataTable& t) {
  std::vector<size_t> out;
  for (size_t c = 0; c < t.schema().size(); ++c) {
    if (t.schema().attribute(c).type != AttributeType::kCategorical) {
      out.push_back(c);
    }
  }
  return out;
}

/// A table of real-valued quasi-identifier columns x0..x{d-1}.
DataTable PointsTable(const std::vector<std::vector<double>>& points) {
  std::vector<Attribute> attrs;
  for (size_t j = 0; j < points[0].size(); ++j) {
    attrs.push_back({"x" + std::to_string(j), AttributeType::kReal,
                     AttributeRole::kQuasiIdentifier});
  }
  DataTable table{Schema(std::move(attrs))};
  for (const auto& p : points) {
    std::vector<Value> row;
    for (double v : p) row.emplace_back(v);
    EXPECT_TRUE(table.AppendRow(row).ok());
  }
  return table;
}

/// Requires the same outcome from both builders: the same refusal, or the
/// same table, grouping, group count and SSE bits.
void ExpectSameRelease(const Result<MicroaggregationResult>& ref,
                       const Result<MicroaggregationResult>& got) {
  ASSERT_EQ(got.ok(), ref.ok()) << got.status().ToString() << " vs "
                                << ref.status().ToString();
  if (!ref.ok()) {
    EXPECT_EQ(got.status().code(), ref.status().code());
    EXPECT_EQ(got.status().message(), ref.status().message());
    return;
  }
  EXPECT_TRUE(got->table == ref->table);
  EXPECT_EQ(got->group_of_row, ref->group_of_row);
  EXPECT_EQ(got->num_groups, ref->num_groups);
  EXPECT_EQ(std::bit_cast<uint64_t>(got->within_group_sse),
            std::bit_cast<uint64_t>(ref->within_group_sse));
}

/// PartitionedMdav against the reference (given `pool`, as the replaced
/// one-partition branch was), with and without `pool`.
void ExpectMatchesReference(const DataTable& table, size_t k,
                            const std::vector<size_t>& cols, ThreadPool* pool,
                            size_t max_partition_rows) {
  const auto ref =
      ReferencePartitionedMdav(table, k, cols, pool, max_partition_rows);
  ExpectSameRelease(ref, PartitionedMdav(table, k, cols, nullptr,
                                         max_partition_rows));
  ExpectSameRelease(ref,
                    PartitionedMdav(table, k, cols, pool, max_partition_rows));
}

// --- PartitionedMdav -------------------------------------------------------

TEST(PartitionedMdavReferenceTest, OnePartitionWithAPoolMatchesPlainMdav) {
  // n <= max_partition_rows: the replaced builder handed the pool to MDAV's
  // sharded scans; the new one groups the single partition serially.
  const DataTable census = MakeCensusScale(1000, 11);
  ThreadPool pool(2);
  ExpectMatchesReference(census, 5, NumericQiCols(census), &pool, 2048);
  ExpectMatchesReference(census, 5, NumericQiCols(census), &pool, 1000);
}

TEST(PartitionedMdavReferenceTest, SplitsJustPastOnePartition) {
  const DataTable census = MakeCensusScale(2049, 12);
  ThreadPool pool(2);
  ExpectMatchesReference(census, 5, NumericQiCols(census), &pool, 2048);
}

TEST(PartitionedMdavReferenceTest, PartitionsOfExactlyTwoK) {
  const DataTable census = MakeCensusScale(700, 13);
  ThreadPool pool(2);
  for (size_t k : {2u, 3u, 5u}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    ExpectMatchesReference(census, k, NumericQiCols(census), &pool, 2 * k);
  }
}

TEST(PartitionedMdavReferenceTest, KEqualsOne) {
  const DataTable census = MakeCensusScale(3000, 14);
  ThreadPool pool(2);
  ExpectMatchesReference(census, 1, NumericQiCols(census), &pool, 256);
}

TEST(PartitionedMdavReferenceTest, HeavyTiesFollowTheRowTieBreak) {
  // Points on a 3 x 3 x 2 grid: every split column is mostly ties, so the
  // (value, row) rank decides each median cut.
  std::vector<std::vector<double>> points;
  for (size_t i = 0; i < 1500; ++i) {
    points.push_back({static_cast<double>(i % 3),
                      static_cast<double>((i / 3) % 3),
                      static_cast<double>((i * 7) % 2)});
  }
  const DataTable grid = PointsTable(points);
  ThreadPool pool(2);
  for (size_t k : {2u, 4u}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    ExpectMatchesReference(grid, k, {0, 1, 2}, &pool, 64);
    ExpectMatchesReference(grid, k, {2, 0}, &pool, 200);
  }
}

TEST(PartitionedMdavReferenceTest, CensusMatchesAtAnyThreadCount) {
  const DataTable census = MakeCensusScale(20000, 11);
  const std::vector<size_t> cols = NumericQiCols(census);
  const auto ref = ReferencePartitionedMdav(census, 5, cols, nullptr, 2048);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  for (size_t threads : {0u, 1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    ExpectSameRelease(ref, PartitionedMdav(census, 5, cols, &pool));
  }
  ExpectSameRelease(ref, PartitionedMdav(census, 5, cols));
}

TEST(PartitionedMdavReferenceTest, RefusalsKeepTheirCodeAndMessage) {
  const DataTable census = MakeCensusScale(3000, 15);
  const std::vector<size_t> cols = NumericQiCols(census);
  const DataTable empty(census.schema());
  ThreadPool pool(2);
  const size_t sex = *census.schema().IndexOf("sex");
  for (size_t max_rows : {size_t{2048}, size_t{4096}}) {
    SCOPED_TRACE("max_partition_rows=" + std::to_string(max_rows));
    ExpectMatchesReference(census, 0, cols, &pool, max_rows);
    ExpectMatchesReference(empty, 5, cols, &pool, max_rows);
    ExpectMatchesReference(census, 5, {}, &pool, max_rows);
    ExpectMatchesReference(census, max_rows, cols, &pool, max_rows);
    ExpectMatchesReference(census, 5, {cols[0], sex}, &pool, max_rows);
  }
}

TEST(PartitionedMdavReferenceTest, RefusesNonFiniteValues) {
  // A NaN key would break the split's strict weak order and mask its
  // group to NaN; an infinity would do the same to the standardization.
  const std::vector<size_t> cols = {0, 3};
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    for (size_t n : {size_t{500}, size_t{3000}}) {
      DataTable census = MakeCensusScale(n, 16);
      ASSERT_TRUE(census.Set(n / 2, 3, Value(bad)).ok());
      ThreadPool pool(2);
      const auto got = PartitionedMdav(census, 5, cols, &pool);
      EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(got.status().message(), "a grouped value is NaN or infinite");
    }
  }
}

// --- Mondrian --------------------------------------------------------------

void ExpectSameMondrian(const MondrianResult& ref, const MondrianResult& got) {
  ASSERT_EQ(got.table.num_rows(), ref.table.num_rows());
  for (size_t r = 0; r < ref.table.num_rows(); ++r) {
    ASSERT_EQ(got.table.row(r), ref.table.row(r)) << "row " << r;
  }
  EXPECT_EQ(got.group_of_row, ref.group_of_row);
  EXPECT_EQ(got.num_groups, ref.num_groups);
}

TEST(MondrianColumnsTest, SchemaShorthandRecodesTheQuasiIdentifiers) {
  const DataTable clinical = MakeClinicalTrial(300, 17);
  for (size_t k : {2u, 5u, 11u}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    auto shorthand = MondrianAnonymize(clinical, k);
    auto explicit_cols = MondrianAnonymize(
        clinical, k, clinical.schema().QuasiIdentifierIndices());
    ASSERT_TRUE(shorthand.ok()) << shorthand.status().ToString();
    ASSERT_TRUE(explicit_cols.ok()) << explicit_cols.status().ToString();
    EXPECT_TRUE(shorthand->table == explicit_cols->table);
    ExpectSameMondrian(*shorthand, *explicit_cols);
  }
}

TEST(MondrianColumnsTest, CensusColumnsMatchTheRelabelledView) {
  const DataTable census = MakeCensusScale(20000, 11);
  const DataTable view = ReferenceMondrianView(census);
  for (size_t k : {5u, 10u}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    auto ref = MondrianAnonymize(view, k);
    auto got = MondrianAnonymize(census, k, NumericCols(census));
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(got->table.schema() == census.schema());
    ExpectSameMondrian(*ref, *got);
  }
}

TEST(MondrianColumnsTest, RefusesBadColumnLists) {
  const DataTable census = MakeCensusScale(200, 18);
  EXPECT_EQ(MondrianAnonymize(census, 5, {}).status().code(),
            StatusCode::kInvalidArgument);
  const size_t sex = *census.schema().IndexOf("sex");
  EXPECT_EQ(MondrianAnonymize(census, 5, {0, sex}).status().code(),
            StatusCode::kInvalidArgument);
  // The shorthand needs every schema QI numeric; the census has two
  // categorical ones.
  EXPECT_FALSE(MondrianAnonymize(census, 5).ok());
}

}  // namespace
}  // namespace tripriv
