// Tests for query-log profiling and the discernibility metrics.

#include <gtest/gtest.h>

#include "attack/profiling.h"
#include "querydb/protection.h"
#include "sdc/information_loss.h"
#include "sdc/microaggregation.h"
#include "table/datasets.h"

namespace tripriv {
namespace {

using attack::ProfileQueryLog;
using attack::QueryLogVisibility;
using attack::UserProfile;

std::vector<StatQuery> MakeLog(const std::vector<std::string>& sqls) {
  std::vector<StatQuery> log;
  for (const auto& sql : sqls) {
    auto q = ParseQuery(sql);
    EXPECT_TRUE(q.ok()) << sql;
    log.push_back(std::move(q).value());
  }
  return log;
}

TEST(ProfilingTest, CountsAttributeInterest) {
  auto log = MakeLog({
      "SELECT COUNT(*) FROM t WHERE height < 165 AND weight > 105",
      "SELECT AVG(blood_pressure) FROM t WHERE height < 165 AND weight > 105",
      "SELECT COUNT(*) FROM t WHERE height > 180",
  });
  UserProfile profile = ProfileQueryLog(log);
  EXPECT_EQ(profile.queries, 3u);
  EXPECT_EQ(profile.attribute_interest.at("height"), 3u);
  EXPECT_EQ(profile.attribute_interest.at("weight"), 2u);
  EXPECT_EQ(profile.TopInterest(), "height");
  EXPECT_EQ(profile.distinct_predicates, 2u);  // first two share a predicate
  EXPECT_EQ(profile.function_use.at("COUNT"), 2u);
  EXPECT_EQ(profile.function_use.at("AVG"), 1u);
}

TEST(ProfilingTest, EmptyAndPredicateFreeLogs) {
  EXPECT_DOUBLE_EQ(QueryLogVisibility({}), 0.0);
  auto log = MakeLog({"SELECT COUNT(*) FROM t"});
  EXPECT_DOUBLE_EQ(QueryLogVisibility(log), 0.0);  // nothing personal probed
  UserProfile profile = ProfileQueryLog(log);
  EXPECT_TRUE(profile.TopInterest().empty());
  EXPECT_EQ(profile.distinct_predicates, 1u);
}

TEST(ProfilingTest, FullVisibilityOnPlainChannel) {
  // The AOL scenario: a plaintext query channel exposes every predicate.
  ProtectionConfig config;
  config.mode = ProtectionMode::kNone;
  StatDatabase db(PaperDataset2(), config);
  ASSERT_TRUE(
      db.Query("SELECT COUNT(*) FROM t WHERE height < 165 AND weight > 105")
          .ok());
  ASSERT_TRUE(db.Query("SELECT AVG(blood_pressure) FROM t WHERE aids = 'Y'")
                  .ok());
  EXPECT_DOUBLE_EQ(QueryLogVisibility(db.query_log()), 1.0);
  UserProfile profile = ProfileQueryLog(db.query_log());
  // The owner now knows this user is probing AIDS status.
  EXPECT_EQ(profile.attribute_interest.count("aids"), 1u);
  EXPECT_NE(profile.ToString().find("aids"), std::string::npos);
}

TEST(DiscernibilityTest, BoundsAndKnownValues) {
  // Dataset 1: classes of 3, 3, 4 -> DM = 9 + 9 + 16 = 34.
  EXPECT_DOUBLE_EQ(DiscernibilityMetric(PaperDataset1()), 34.0);
  // Dataset 2: all unique -> DM = n = 10 (the minimum).
  EXPECT_DOUBLE_EQ(DiscernibilityMetric(PaperDataset2()), 10.0);
  // One big class after heavy masking -> n^2.
  auto masked = MdavMicroaggregate(PaperDataset2(), 10);
  ASSERT_TRUE(masked.ok());
  EXPECT_DOUBLE_EQ(DiscernibilityMetric(masked->table), 100.0);
}

TEST(DiscernibilityTest, GrowsWithK) {
  DataTable data = MakeExtendedTrial(200, 7);
  double prev = DiscernibilityMetric(data);
  for (size_t k : {2u, 5u, 15u}) {
    auto masked = MdavMicroaggregate(data, k);
    ASSERT_TRUE(masked.ok());
    const double dm = DiscernibilityMetric(masked->table);
    EXPECT_GT(dm, prev);
    prev = dm;
  }
}

TEST(DiscernibilityTest, NormalizedAverageClassSize) {
  // Dataset 1 at k = 3: classes {3,3,4}, avg 10/3, normalized (10/3)/3.
  auto v = NormalizedAverageClassSize(
      PaperDataset1(), PaperDataset1().schema().QuasiIdentifierIndices(), 3);
  ASSERT_TRUE(v.ok());
  EXPECT_NEAR(*v, 10.0 / 3.0 / 3.0, 1e-12);
  DataTable empty(PatientSchema());
  EXPECT_FALSE(NormalizedAverageClassSize(empty, {0, 1}, 3).ok());
  EXPECT_FALSE(NormalizedAverageClassSize(PaperDataset1(), {0, 1}, 0).ok());
}

}  // namespace
}  // namespace tripriv
