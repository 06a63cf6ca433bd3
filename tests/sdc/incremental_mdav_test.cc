// Tests for incremental MDAV maintenance: bootstrap equivalence with a
// full MDAV run, clean-group stability (untouched groups keep their exact
// membership and masked values), k preservation through reclustering and
// small-pool absorption, and bit-identical grouping at 0/1/2/8 threads.

#include "sdc/incremental_mdav.h"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "sdc/anonymity.h"
#include "table/datasets.h"
#include "table/mutation.h"
#include "util/thread_pool.h"

namespace tripriv {
namespace {

constexpr size_t kQiCols[] = {0, 1};

std::vector<uint64_t> IdentityUids(size_t n) {
  std::vector<uint64_t> uids(n);
  for (size_t i = 0; i < n; ++i) uids[i] = i;
  return uids;
}

std::unordered_map<uint64_t, size_t> GroupOfUid(
    const std::vector<uint64_t>& uids, const std::vector<size_t>& groups) {
  std::unordered_map<uint64_t, size_t> map;
  for (size_t i = 0; i < uids.size(); ++i) map[uids[i]] = groups[i];
  return map;
}

std::map<size_t, size_t> GroupSizes(const std::vector<size_t>& group_of_row) {
  std::map<size_t, size_t> sizes;
  for (size_t g : group_of_row) sizes[g]++;
  return sizes;
}

TEST(IncrementalMdavTest, EmptyPreviousGroupingIsAFullMdavRun) {
  const DataTable base = MakeClinicalTrial(60, 7);
  const std::vector<size_t> cols(std::begin(kQiCols), std::end(kQiCols));
  auto full = MdavMicroaggregate(base, 3, cols);
  ASSERT_TRUE(full.ok());

  auto inc = IncrementalMdav(base, IdentityUids(60), cols, 3, {}, {});
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  EXPECT_EQ(inc->group_of_row, full->group_of_row);
  EXPECT_EQ(inc->num_groups, full->num_groups);
  EXPECT_EQ(inc->rows_reclustered, 60u);
  EXPECT_EQ(inc->groups_kept, 0u);
  EXPECT_EQ(TableChecksum(inc->protected_table), TableChecksum(full->table));
}

TEST(IncrementalMdavTest, CleanGroupsKeepMembershipAndMaskedValues) {
  const DataTable base = MakeClinicalTrial(60, 3);
  const std::vector<size_t> cols(std::begin(kQiCols), std::end(kQiCols));
  const std::vector<uint64_t> uids = IdentityUids(60);
  auto prev = IncrementalMdav(base, uids, cols, 3, {}, {});
  ASSERT_TRUE(prev.ok());
  const auto prev_map = GroupOfUid(uids, prev->group_of_row);

  // Update one record in place: only its group is dirty.
  DataTable mutated = base;
  ASSERT_TRUE(mutated.Set(17, 0, Value(int64_t{199})).ok());
  auto next = IncrementalMdav(mutated, uids, cols, 3, prev_map, {17});
  ASSERT_TRUE(next.ok());

  const size_t dirty_group = prev_map.at(17);
  size_t dirty_members = 0;
  for (size_t r = 0; r < 60; ++r) {
    if (prev->group_of_row[r] == dirty_group) ++dirty_members;
  }
  EXPECT_EQ(next->rows_reclustered, dirty_members);
  EXPECT_EQ(next->groups_kept, prev->num_groups - 1);
  EXPECT_GE(next->min_group_size, 3u);

  // Every row of every CLEAN previous group: same co-membership and the
  // exact same masked values as before (same members -> same centroid).
  for (size_t r = 0; r < 60; ++r) {
    if (prev->group_of_row[r] == dirty_group) continue;
    for (size_t c : cols) {
      EXPECT_EQ(next->protected_table.at(r, c), prev->protected_table.at(r, c))
          << "row " << r << " col " << c;
    }
  }
}

TEST(IncrementalMdavTest, ResidualPoolAbsorbsIntoNearestCleanGroup) {
  const DataTable base = MakeClinicalTrial(40, 11);
  const std::vector<size_t> cols(std::begin(kQiCols), std::end(kQiCols));
  std::vector<uint64_t> uids = IdentityUids(40);
  auto prev = IncrementalMdav(base, uids, cols, 4, {}, {});
  ASSERT_TRUE(prev.ok());
  const auto prev_map = GroupOfUid(uids, prev->group_of_row);

  // Delete members of one group until exactly k-1 survive: the survivors
  // are a residual pool that cannot form a lawful group, so they must be
  // absorbed into clean groups (which only grow).
  const size_t victim_group = prev->group_of_row[5];
  std::vector<uint64_t> victim_members;
  for (size_t r = 0; r < 40; ++r) {
    if (prev->group_of_row[r] == victim_group) victim_members.push_back(r);
  }
  ASSERT_GE(victim_members.size(), 4u);
  std::vector<RowMutation> deletes;
  for (size_t i = 0; i + 3 < victim_members.size(); ++i) {
    deletes.push_back(RowMutation::Delete(victim_members[i]));
  }
  DataTable mutated = base;
  std::vector<uint64_t> new_uids = uids;
  uint64_t next_uid = 40;
  auto applied = ApplyMutations(deletes, &mutated, &new_uids, &next_uid);
  ASSERT_TRUE(applied.ok());

  auto next = IncrementalMdav(mutated, new_uids, cols, 4, prev_map,
                              applied->dirty_uids);
  ASSERT_TRUE(next.ok());
  EXPECT_GE(next->min_group_size, 4u);
  for (const auto& [g, size] : GroupSizes(next->group_of_row)) {
    EXPECT_GE(size, 4u) << "group " << g;
  }
  EXPECT_TRUE(IsKAnonymous(next->protected_table, 4, cols));
}

TEST(IncrementalMdavTest, MixedBatchPreservesKAnonymity) {
  const DataTable base = MakeClinicalTrial(50, 23);
  const std::vector<size_t> cols(std::begin(kQiCols), std::end(kQiCols));
  std::vector<uint64_t> uids = IdentityUids(50);
  auto prev = IncrementalMdav(base, uids, cols, 3, {}, {});
  ASSERT_TRUE(prev.ok());
  const auto prev_map = GroupOfUid(uids, prev->group_of_row);

  DataTable mutated = base;
  std::vector<uint64_t> new_uids = uids;
  uint64_t next_uid = 50;
  auto applied = ApplyMutations(
      {RowMutation::Insert({171, 76, 150, "N"}),
       RowMutation::Insert({166, 64, 139, "Y"}),
       RowMutation::Delete(12), RowMutation::Update(33, {182, 91, 160, "N"}),
       RowMutation::Delete(4)},
      &mutated, &new_uids, &next_uid);
  ASSERT_TRUE(applied.ok());

  auto next = IncrementalMdav(mutated, new_uids, cols, 3, prev_map,
                              applied->dirty_uids);
  ASSERT_TRUE(next.ok());
  EXPECT_GE(next->min_group_size, 3u);
  EXPECT_TRUE(IsKAnonymous(next->protected_table, 3, cols));
  // Incrementality: the pool is dirty groups + inserts, not the table.
  EXPECT_LT(next->rows_reclustered, mutated.num_rows());
  EXPECT_GT(next->groups_kept, 0u);
}

TEST(IncrementalMdavTest, TinyTableDegeneratesToOneGroup) {
  const DataTable base = MakeClinicalTrial(2, 5);
  const std::vector<size_t> cols(std::begin(kQiCols), std::end(kQiCols));
  auto r = IncrementalMdav(base, IdentityUids(2), cols, 3, {}, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_groups, 1u);
  // min_group_size < k: exactly what the flip gate refuses.
  EXPECT_LT(r->min_group_size, 3u);
}

TEST(IncrementalMdavTest, RefusesNonFinitePooledValues) {
  // The bootstrap pools every row, and a flip pools every inserted or
  // updated row, so a NaN or an infinity is refused where it enters.
  const DataTable census = MakeCensusScale(400, 11);
  const size_t weight = *census.schema().IndexOf("survey_weight");
  const std::vector<size_t> cols = {0, 1, 2, weight};
  const std::vector<uint64_t> uids = IdentityUids(400);
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    DataTable poisoned = census;
    ASSERT_TRUE(poisoned.Set(123, weight, Value(bad)).ok());
    auto bootstrap = IncrementalMdav(poisoned, uids, cols, 5, {}, {});
    EXPECT_EQ(bootstrap.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(bootstrap.status().message(),
              "a grouped value is NaN or infinite");
  }

  auto prev = IncrementalMdav(census, uids, cols, 5, {}, {});
  ASSERT_TRUE(prev.ok()) << prev.status().ToString();
  const auto prev_map = GroupOfUid(uids, prev->group_of_row);
  // An inserted NaN row: a pool of one, below k.
  DataTable inserted = census;
  std::vector<Value> row = census.row(0);
  row[weight] = Value(std::numeric_limits<double>::quiet_NaN());
  ASSERT_TRUE(inserted.AppendRow(row).ok());
  std::vector<uint64_t> grown = uids;
  grown.push_back(400);
  auto next = IncrementalMdav(inserted, grown, cols, 5, prev_map, {400});
  EXPECT_EQ(next.status().code(), StatusCode::kInvalidArgument);
  // An updated row that becomes infinite: its whole group is pooled.
  DataTable updated = census;
  ASSERT_TRUE(
      updated.Set(7, weight, Value(-std::numeric_limits<double>::infinity()))
          .ok());
  next = IncrementalMdav(updated, uids, cols, 5, prev_map, {7});
  EXPECT_EQ(next.status().code(), StatusCode::kInvalidArgument);
}

TEST(IncrementalMdavTest, GroupingIsBitIdenticalAcrossThreadCounts) {
  const DataTable base = MakeClinicalTrial(120, 17);
  const std::vector<size_t> cols(std::begin(kQiCols), std::end(kQiCols));
  const std::vector<uint64_t> uids = IdentityUids(120);
  auto prev = IncrementalMdav(base, uids, cols, 3, {}, {});
  ASSERT_TRUE(prev.ok());
  const auto prev_map = GroupOfUid(uids, prev->group_of_row);

  DataTable mutated = base;
  for (size_t r : {3u, 40u, 77u}) {
    ASSERT_TRUE(mutated.Set(r, 1, Value(int64_t{120 + (int)r})).ok());
  }
  const std::vector<uint64_t> dirty = {3, 40, 77};

  auto serial = IncrementalMdav(mutated, uids, cols, 3, prev_map, dirty,
                                nullptr);
  ASSERT_TRUE(serial.ok());
  for (size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    auto parallel =
        IncrementalMdav(mutated, uids, cols, 3, prev_map, dirty, &pool);
    ASSERT_TRUE(parallel.ok()) << "threads=" << threads;
    EXPECT_EQ(parallel->group_of_row, serial->group_of_row)
        << "threads=" << threads;
    EXPECT_EQ(TableChecksum(parallel->protected_table),
              TableChecksum(serial->protected_table))
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace tripriv
