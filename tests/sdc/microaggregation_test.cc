#include "sdc/microaggregation.h"

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sdc/anonymity.h"
#include "stats/descriptive.h"
#include "table/datasets.h"
#include "table/mutation.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace tripriv {
namespace {

std::map<size_t, size_t> GroupSizes(const std::vector<size_t>& group_of_row) {
  std::map<size_t, size_t> sizes;
  for (size_t g : group_of_row) sizes[g]++;
  return sizes;
}

// Reference MDAV, written the plain way: a vector-of-rows matrix, serial
// scans, and a std::sort of the whole pool on the (squared distance, pool
// index) key to find each group's k nearest. The production code picks
// them by partial selection over a flat buffer; it must reproduce this
// reference's groups, member order, SSE and masked table bit for bit.

void ReferenceStandardize(std::vector<std::vector<double>>* m) {
  const size_t d = (*m)[0].size();
  for (size_t j = 0; j < d; ++j) {
    std::vector<double> col(m->size());
    for (size_t i = 0; i < m->size(); ++i) col[i] = (*m)[i][j];
    const double mean = Mean(col);
    const double sd = col.size() >= 2 ? SampleStddev(col) : 0.0;
    for (size_t i = 0; i < m->size(); ++i) {
      (*m)[i][j] = sd > 0.0 ? ((*m)[i][j] - mean) / sd : 0.0;
    }
  }
}

std::vector<double> ReferenceCentroid(
    const std::vector<std::vector<double>>& m, const std::vector<size_t>& idx) {
  std::vector<double> c(m[0].size(), 0.0);
  for (size_t i : idx) {
    for (size_t j = 0; j < c.size(); ++j) c[j] += m[i][j];
  }
  for (double& v : c) v /= static_cast<double>(idx.size());
  return c;
}

size_t ReferenceFarthest(const std::vector<std::vector<double>>& m,
                         const std::vector<size_t>& pool,
                         const std::vector<double>& point) {
  size_t best = 0;
  double best_d = -1.0;
  for (size_t i = 0; i < pool.size(); ++i) {
    const double d = SquaredDistance(m[pool[i]], point);
    if (d > best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

std::vector<size_t> ReferenceTakeGroup(
    const std::vector<std::vector<double>>& m, std::vector<size_t>* pool,
    size_t seed_pos, size_t k) {
  const size_t seed_row = (*pool)[seed_pos];
  std::vector<std::pair<double, size_t>> by_dist(pool->size());
  for (size_t i = 0; i < pool->size(); ++i) {
    by_dist[i] = {SquaredDistance(m[(*pool)[i]], m[seed_row]), i};
  }
  std::sort(by_dist.begin(), by_dist.end());
  const size_t take = std::min(k, pool->size());
  std::vector<size_t> group;
  std::vector<bool> taken(pool->size(), false);
  for (size_t i = 0; i < take; ++i) {
    group.push_back((*pool)[by_dist[i].second]);
    taken[by_dist[i].second] = true;
  }
  std::vector<size_t> rest;
  for (size_t i = 0; i < pool->size(); ++i) {
    if (!taken[i]) rest.push_back((*pool)[i]);
  }
  *pool = std::move(rest);
  return group;
}

MicroaggregationResult ReferenceMdav(const DataTable& table, size_t k,
                                     const std::vector<size_t>& cols) {
  const auto raw = table.NumericMatrix(cols).value();
  auto std_data = raw;
  ReferenceStandardize(&std_data);
  const size_t n = table.num_rows();
  std::vector<size_t> pool(n);
  std::iota(pool.begin(), pool.end(), 0);
  std::vector<std::vector<size_t>> groups;
  while (pool.size() >= 3 * k) {
    const size_t far1 =
        ReferenceFarthest(std_data, pool, ReferenceCentroid(std_data, pool));
    const size_t far1_row = pool[far1];
    groups.push_back(ReferenceTakeGroup(std_data, &pool, far1, k));
    const size_t far2 = ReferenceFarthest(std_data, pool, std_data[far1_row]);
    groups.push_back(ReferenceTakeGroup(std_data, &pool, far2, k));
  }
  if (pool.size() >= 2 * k) {
    const size_t far1 =
        ReferenceFarthest(std_data, pool, ReferenceCentroid(std_data, pool));
    groups.push_back(ReferenceTakeGroup(std_data, &pool, far1, k));
  }
  if (!pool.empty()) groups.push_back(pool);

  MicroaggregationResult result;
  result.table = table;
  result.group_of_row.assign(n, 0);
  result.num_groups = groups.size();
  std::vector<std::vector<double>> masked = raw;
  for (size_t g = 0; g < groups.size(); ++g) {
    const auto centroid_raw = ReferenceCentroid(raw, groups[g]);
    const auto centroid_std = ReferenceCentroid(std_data, groups[g]);
    for (size_t row : groups[g]) {
      result.group_of_row[row] = g;
      masked[row] = centroid_raw;
      result.within_group_sse += SquaredDistance(std_data[row], centroid_std);
    }
  }
  for (size_t j = 0; j < cols.size(); ++j) {
    std::vector<double> col(n);
    for (size_t r = 0; r < n; ++r) col[r] = masked[r][j];
    EXPECT_TRUE(result.table.SetNumericColumn(cols[j], col).ok());
  }
  return result;
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

/// n uniform points in [0, 100)^d: distinct, so ties are rare.
DataTable RandomPoints(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> points(n, std::vector<double>(d));
  for (auto& p : points) {
    for (double& v : p) v = rng.UniformDouble(0.0, 100.0);
  }
  return PointsTable(points);
}

/// n points on a {0, .., side-1}^2 integer grid: many duplicate points and
/// many equal distances, so the pool-index tie-break decides most groups.
DataTable GridPoints(size_t n, int64_t side, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> points(n, std::vector<double>(2));
  for (auto& p : points) {
    for (double& v : p) v = static_cast<double>(rng.UniformInt(0, side - 1));
  }
  return PointsTable(points);
}

/// Requires `got` to carry the reference's grouping, SSE and masked table
/// exactly.
void ExpectSameResult(const MicroaggregationResult& ref,
                      const Result<MicroaggregationResult>& got) {
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->group_of_row, ref.group_of_row);
  EXPECT_EQ(got->num_groups, ref.num_groups);
  EXPECT_EQ(got->within_group_sse, ref.within_group_sse);
  EXPECT_EQ(TableChecksum(got->table), TableChecksum(ref.table));
}

/// MDAV over the table's quasi-identifiers against the reference.
void ExpectMatchesReference(const DataTable& table, size_t k) {
  const std::vector<size_t> qi = table.schema().QuasiIdentifierIndices();
  ExpectSameResult(ReferenceMdav(table, k, qi),
                   MdavMicroaggregate(table, k, qi));
}

TEST(MdavTest, GroupSizesWithinBounds) {
  DataTable data = MakeClinicalTrial(100, 3);
  for (size_t k : {2u, 3u, 5u, 10u}) {
    auto r = MdavMicroaggregate(data, k);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    for (const auto& [g, size] : GroupSizes(r->group_of_row)) {
      EXPECT_GE(size, k) << "k=" << k;
      EXPECT_LE(size, 2 * k - 1) << "k=" << k;
    }
  }
}

TEST(MdavTest, ResultIsKAnonymousPerReference12) {
  // [12]: microaggregation with minimum group size k over the QIs yields
  // k-anonymity.
  DataTable data = MakeClinicalTrial(150, 11);
  for (size_t k : {3u, 7u}) {
    auto r = MdavMicroaggregate(data, k);
    ASSERT_TRUE(r.ok());
    EXPECT_GE(AnonymityLevel(r->table), k);
  }
}

TEST(MdavTest, CentroidsPreserveColumnMeans) {
  DataTable data = MakeClinicalTrial(120, 5);
  // Use real-typed copies to avoid integer rounding in this check.
  Schema s({
      {"height", AttributeType::kReal, AttributeRole::kQuasiIdentifier},
      {"weight", AttributeType::kReal, AttributeRole::kQuasiIdentifier},
  });
  DataTable real_data(s);
  for (size_t r = 0; r < data.num_rows(); ++r) {
    ASSERT_TRUE(real_data
                    .AppendRow({Value(data.at(r, 0).ToDouble()),
                                Value(data.at(r, 1).ToDouble())})
                    .ok());
  }
  auto r = MdavMicroaggregate(real_data, 4, {0, 1});
  ASSERT_TRUE(r.ok());
  for (size_t c : {0u, 1u}) {
    const double orig_mean = Mean(real_data.NumericColumn(c).value());
    const double masked_mean = Mean(r->table.NumericColumn(c).value());
    EXPECT_NEAR(orig_mean, masked_mean, 1e-9);
  }
}

TEST(MdavTest, MembersShareGroupCentroid) {
  DataTable data = MakeClinicalTrial(60, 9);
  auto r = MdavMicroaggregate(data, 3);
  ASSERT_TRUE(r.ok());
  for (size_t a = 0; a < data.num_rows(); ++a) {
    for (size_t b = a + 1; b < data.num_rows(); ++b) {
      if (r->group_of_row[a] == r->group_of_row[b]) {
        EXPECT_EQ(r->table.at(a, 0), r->table.at(b, 0));
        EXPECT_EQ(r->table.at(a, 1), r->table.at(b, 1));
      }
    }
  }
}

TEST(MdavTest, SmallTableSingleGroup) {
  DataTable data = MakeClinicalTrial(4, 21);
  auto r = MdavMicroaggregate(data, 5);  // k > n
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_groups, 1u);
}

TEST(MdavTest, KEquals1IsLossless) {
  DataTable data = MakeClinicalTrial(30, 2);
  auto r = MdavMicroaggregate(data, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->within_group_sse, 0.0, 1e-9);
}

TEST(MdavTest, SseGrowsWithK) {
  DataTable data = MakeClinicalTrial(200, 13);
  double prev = -1.0;
  for (size_t k : {2u, 5u, 20u, 50u}) {
    auto r = MdavMicroaggregate(data, k);
    ASSERT_TRUE(r.ok());
    EXPECT_GT(r->within_group_sse, prev);
    prev = r->within_group_sse;
  }
}

TEST(MdavTest, ErrorsOnBadInput) {
  DataTable data = MakeClinicalTrial(10, 1);
  EXPECT_FALSE(MdavMicroaggregate(data, 0).ok());
  EXPECT_FALSE(MdavMicroaggregate(data, 3, {}).ok());
  EXPECT_FALSE(MdavMicroaggregate(data, 3, {3}).ok());  // categorical column
  DataTable empty(PatientSchema());
  EXPECT_FALSE(MdavMicroaggregate(empty, 3).ok());
}

TEST(MdavTest, RefusesNonFiniteValues) {
  // A NaN column would standardize to all zeros and mask to NaN centroids;
  // MDAV refuses it, and any infinity, before it groups anything.
  const DataTable census = MakeCensusScale(3000, 11);
  const size_t weight = *census.schema().IndexOf("survey_weight");
  const std::vector<size_t> cols = {0, 1, 2, weight};
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    DataTable poisoned = census;
    for (size_t r = 0; r < poisoned.num_rows(); r += 7) {
      ASSERT_TRUE(poisoned.Set(r, weight, Value(bad)).ok());
    }
    const auto got = MdavMicroaggregate(poisoned, 5, cols);
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(got.status().message(), "a grouped value is NaN or infinite");
  }
}

TEST(MdavReferenceTest, MatchesFullSortAroundTwoAndThreeK) {
  // Pool sizes at and around 2k and 3k walk every exit of the main loop:
  // two groups per round, one extra group, and the < 2k remainder.
  for (size_t k : {1u, 2u, 3u, 5u, 7u}) {
    for (size_t n : {2 * k - 1, 2 * k, 2 * k + 1, 3 * k - 1, 3 * k, 3 * k + 1,
                     6 * k + 2, size_t{97}}) {
      if (n == 0) continue;
      SCOPED_TRACE("k=" + std::to_string(k) + " n=" + std::to_string(n));
      ExpectMatchesReference(RandomPoints(n, 3, 100 + n), k);
      ExpectMatchesReference(GridPoints(n, 3, 200 + n), k);
    }
  }
}

TEST(MdavReferenceTest, MatchesFullSortWhenKExceedsN) {
  ExpectMatchesReference(RandomPoints(4, 2, 5), 5);
  ExpectMatchesReference(GridPoints(6, 2, 6), 7);
  ExpectMatchesReference(RandomPoints(1, 2, 7), 3);
}

TEST(MdavReferenceTest, MatchesFullSortOnTieHeavyInputs) {
  for (size_t k : {1u, 2u, 3u, 5u, 7u}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    // Every point identical: every distance ties, so the pool index alone
    // orders each group.
    const std::vector<std::vector<double>> same(40, {3.0, -1.0});
    ExpectMatchesReference(PointsTable(same), k);
    // Two duplicated points and a 2 x 2 grid: ties between and within
    // clusters.
    std::vector<std::vector<double>> twins;
    for (size_t i = 0; i < 45; ++i) {
      twins.push_back({static_cast<double>(i % 2), 0.0});
    }
    ExpectMatchesReference(PointsTable(twins), k);
    ExpectMatchesReference(GridPoints(150, 2, 300 + k), k);
    ExpectMatchesReference(GridPoints(150, 5, 400 + k), k);
  }
}

TEST(MdavReferenceTest, MatchesFullSortOnIntegerTables) {
  // Integer QIs: the masked table rounds centroids back into the column.
  ExpectMatchesReference(MakeClinicalTrial(211, 3), 3);
  const DataTable census = MakeCensus(300, 11);
  const std::vector<size_t> cols = {*census.schema().IndexOf("age"),
                                    *census.schema().IndexOf("education")};
  ExpectSameResult(ReferenceMdav(census, 5, cols),
                   MdavMicroaggregate(census, 5, cols));
}

TEST(MdavReferenceTest, ShardedScansMatchFullSortAtAnyThreadCount) {
  // Pools above the 4096-element parallel cutoff, so the first rounds run
  // the sharded argmax and the sharded distance fill.
  const DataTable random = RandomPoints(4600, 2, 17);
  const DataTable grid = GridPoints(4600, 6, 18);
  const std::vector<size_t> cols = {0, 1};
  const MicroaggregationResult random_ref = ReferenceMdav(random, 5, cols);
  const MicroaggregationResult grid_ref = ReferenceMdav(grid, 3, cols);
  for (size_t threads : {0u, 1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    ExpectSameResult(random_ref, MdavMicroaggregate(random, 5, cols, &pool));
    ExpectSameResult(grid_ref, MdavMicroaggregate(grid, 3, cols, &pool));
  }
}

TEST(MdavReferenceTest, GroupsOverAPoolMatchMdavOnTheSelectedRows) {
  // MdavGroups over a pool standardizes over the pool alone: the grouping
  // equals a full MDAV run on a table holding only the pooled rows.
  const DataTable table = GridPoints(120, 4, 21);
  const auto points = table.NumericMatrix({0, 1}).value();
  std::vector<size_t> pool;
  for (size_t r = 0; r < table.num_rows(); r += 2) pool.push_back(r);
  const MicroaggregationResult ref =
      ReferenceMdav(table.SelectRows(pool), 4, {0, 1});
  auto got = MdavGroups(points, pool, 4);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->groups.size(), ref.num_groups);
  for (size_t g = 0; g < got->groups.size(); ++g) {
    for (size_t row : got->groups[g]) {
      const size_t pos = static_cast<size_t>(
          std::find(pool.begin(), pool.end(), row) - pool.begin());
      ASSERT_LT(pos, pool.size());
      EXPECT_EQ(ref.group_of_row[pos], g) << "row " << row;
    }
  }
  EXPECT_EQ(got->within_group_sse, ref.within_group_sse);
  EXPECT_FALSE(MdavGroups(points, {}, 4).ok());
  EXPECT_FALSE(MdavGroups(points, pool, 0).ok());
  EXPECT_EQ(MdavGroups(points, {0, 500}, 1).status().code(),
            StatusCode::kInvalidArgument);  // no point 500
  const std::vector<std::vector<double>> ragged = {{1.0, 2.0}, {3.0}};
  EXPECT_EQ(MdavGroups(ragged, {0, 1}, 1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(OptimalUnivariateTest, RespectsSizeBounds) {
  std::vector<double> values{1, 2, 3, 10, 11, 12, 20, 21, 22, 23};
  auto groups = OptimalUnivariateGroups(values, 3);
  ASSERT_TRUE(groups.ok());
  for (const auto& [g, size] : GroupSizes(*groups)) {
    EXPECT_GE(size, 3u);
    EXPECT_LE(size, 5u);
  }
}

TEST(OptimalUnivariateTest, FindsNaturalClusters) {
  // Three well-separated clusters of size 3: the optimum groups them.
  std::vector<double> values{1, 2, 3, 100, 101, 102, 200, 201, 202};
  auto groups = OptimalUnivariateGroups(values, 3);
  ASSERT_TRUE(groups.ok());
  EXPECT_EQ((*groups)[0], (*groups)[1]);
  EXPECT_EQ((*groups)[1], (*groups)[2]);
  EXPECT_EQ((*groups)[3], (*groups)[4]);
  EXPECT_NE((*groups)[2], (*groups)[3]);
  EXPECT_NE((*groups)[5], (*groups)[6]);
}

TEST(OptimalUnivariateTest, GroupsAreContiguousInSortedOrder) {
  Rng rng(7);
  std::vector<double> values;
  for (int i = 0; i < 50; ++i) values.push_back(rng.UniformDouble(0, 100));
  auto groups = OptimalUnivariateGroups(values, 4);
  ASSERT_TRUE(groups.ok());
  // Sort values; group ids along the sorted order must be non-decreasing.
  std::vector<size_t> order(values.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return values[a] < values[b]; });
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_LE((*groups)[order[i - 1]], (*groups)[order[i]]);
  }
}

TEST(OptimalUnivariateTest, BeatsOrTiesMdavOnSse) {
  DataTable data = MakeClinicalTrial(100, 17);
  const size_t k = 4;
  auto optimal = OptimalUnivariateMicroaggregate(data, k, 0);
  auto mdav = MdavMicroaggregate(data, k, {0});
  ASSERT_TRUE(optimal.ok());
  ASSERT_TRUE(mdav.ok());
  EXPECT_LE(optimal->within_group_sse, mdav->within_group_sse + 1e-9);
}

TEST(OptimalUnivariateTest, RefusesNonFiniteValues) {
  // A NaN key would break the sort's strict weak order and mask the whole
  // column to NaN in one group.
  Schema reals({{"x", AttributeType::kReal, AttributeRole::kQuasiIdentifier}});
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    std::vector<double> values;
    DataTable table(reals);
    for (int i = 0; i < 300; ++i) {
      values.push_back(i % 7 == 3 ? bad : (i * 37) % 101 * 0.5);
      ASSERT_TRUE(table.AppendRow({Value(values.back())}).ok());
    }
    EXPECT_EQ(OptimalUnivariateGroups(values, 5).status().code(),
              StatusCode::kInvalidArgument);
    const auto masked = OptimalUnivariateMicroaggregate(table, 5, 0);
    EXPECT_EQ(masked.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(masked.status().message(), "a grouped value is NaN or infinite");
  }
}

TEST(OptimalUnivariateTest, TinyInputSingleGroup) {
  auto groups = OptimalUnivariateGroups({5.0, 6.0}, 3);
  ASSERT_TRUE(groups.ok());
  EXPECT_EQ(*groups, (std::vector<size_t>{0, 0}));
  EXPECT_FALSE(OptimalUnivariateGroups({}, 3).ok());
  EXPECT_FALSE(OptimalUnivariateGroups({1.0}, 0).ok());
}

}  // namespace
}  // namespace tripriv
