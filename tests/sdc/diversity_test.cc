// Tests for l-diversity variants, t-closeness, and the homogeneity attack.

#include <gtest/gtest.h>

#include "sdc/diversity.h"
#include "table/datasets.h"

namespace tripriv {
namespace {

/// 2-anonymous table with one homogeneous class (zip 100 -> always flu).
Result<DataTable> HomogeneousExample() {
  Schema s({
      {"zip", AttributeType::kInteger, AttributeRole::kQuasiIdentifier},
      {"disease", AttributeType::kCategorical, AttributeRole::kConfidential},
  });
  return DataTable::FromRows(s, {{100, "flu"},
                                 {100, "flu"},
                                 {200, "flu"},
                                 {200, "cancer"},
                                 {300, "cancer"},
                                 {300, "flu"},
                                 {300, "cancer"}});
}

TEST(EntropyDiversityTest, PaperDataset1) {
  DataTable t = PaperDataset1();
  const auto qi = t.schema().QuasiIdentifierIndices();
  // Every class has 2 distinct aids values; the worst class is the size-4
  // one with split {1, 3}: exp(-(1/4)ln(1/4)-(3/4)ln(3/4)) ~ 1.755.
  const double div = EntropyLDiversity(t, qi, 3);
  EXPECT_NEAR(div, 1.7548, 1e-3);
  // Blood pressures are unique within classes: entropy diversity = class
  // size for the smallest class (3).
  EXPECT_NEAR(EntropyLDiversity(t, qi, 2), 3.0, 1e-9);
}

TEST(EntropyDiversityTest, HomogeneousClassHasDiversityOne) {
  auto t = HomogeneousExample();
  ASSERT_TRUE(t.ok());
  EXPECT_NEAR(EntropyLDiversity(*t, {0}, 1), 1.0, 1e-9);
}

TEST(EntropyDiversityTest, EmptyTableIsZero) {
  DataTable t(PatientSchema());
  EXPECT_DOUBLE_EQ(EntropyLDiversity(t, {0, 1}, 3), 0.0);
}

TEST(RecursiveDiversityTest, KnownCases) {
  auto t = HomogeneousExample();
  ASSERT_TRUE(t.ok());
  // The zip-100 class has counts {2}; r1 = 2 and the l=2 tail is empty:
  // not (c,2)-diverse for any c.
  auto r = IsRecursiveCLDiverse(*t, {0}, 1, 3.0, 2);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
  // With l = 1 the condition is r1 < c * total: zip-100 has 2 < c*2 iff
  // c > 1.
  EXPECT_TRUE(*IsRecursiveCLDiverse(*t, {0}, 1, 1.5, 1));
  EXPECT_FALSE(*IsRecursiveCLDiverse(*t, {0}, 1, 0.9, 1));
}

TEST(RecursiveDiversityTest, BalancedClassesPass) {
  DataTable t = PaperDataset1();
  const auto qi = t.schema().QuasiIdentifierIndices();
  // aids counts per class are {2,1} or {3,1}: r1=3 < c*(r2)=c*1 iff c>3.
  EXPECT_TRUE(*IsRecursiveCLDiverse(t, qi, 3, 3.5, 2));
  EXPECT_FALSE(*IsRecursiveCLDiverse(t, qi, 3, 2.0, 2));
}

TEST(RecursiveDiversityTest, RejectsBadParameters) {
  DataTable t = PaperDataset1();
  const auto qi = t.schema().QuasiIdentifierIndices();
  EXPECT_FALSE(IsRecursiveCLDiverse(t, qi, 3, 0.0, 2).ok());
  EXPECT_FALSE(IsRecursiveCLDiverse(t, qi, 3, 2.0, 0).ok());
}

TEST(TClosenessTest, SingleClassIsPerfectlyClose) {
  // One equivalence class == global distribution -> distance 0.
  Schema s({
      {"zip", AttributeType::kInteger, AttributeRole::kQuasiIdentifier},
      {"disease", AttributeType::kCategorical, AttributeRole::kConfidential},
  });
  auto t = DataTable::FromRows(
      s, {{1, "flu"}, {1, "cancer"}, {1, "flu"}, {1, "asthma"}});
  ASSERT_TRUE(t.ok());
  auto d = TClosenessMaxDistance(*t, {0}, 1);
  ASSERT_TRUE(d.ok());
  EXPECT_NEAR(*d, 0.0, 1e-12);
  EXPECT_TRUE(*IsTClose(*t, {0}, 1, 0.01));
}

TEST(TClosenessTest, SkewedClassIsFar) {
  auto t = HomogeneousExample();
  ASSERT_TRUE(t.ok());
  // Global: flu 4/7, cancer 3/7. Class zip-100: flu 1.0 -> TV/2 = 3/7.
  auto d = TClosenessMaxDistance(*t, {0}, 1);
  ASSERT_TRUE(d.ok());
  EXPECT_NEAR(*d, 3.0 / 7.0, 1e-9);
  EXPECT_FALSE(*IsTClose(*t, {0}, 1, 0.3));
  EXPECT_TRUE(*IsTClose(*t, {0}, 1, 0.5));
}

TEST(TClosenessTest, NumericUsesOrderedDistance) {
  // Two classes with the same *set* of values but concentrated at opposite
  // ends: ordered EMD must see them as far apart.
  Schema s({
      {"zip", AttributeType::kInteger, AttributeRole::kQuasiIdentifier},
      {"salary", AttributeType::kInteger, AttributeRole::kConfidential},
  });
  auto t = DataTable::FromRows(s, {{1, 10}, {1, 10}, {1, 20},
                                   {2, 90}, {2, 100}, {2, 100}});
  ASSERT_TRUE(t.ok());
  auto d = TClosenessMaxDistance(*t, {0}, 1);
  ASSERT_TRUE(d.ok());
  EXPECT_GT(*d, 0.35);  // each class sits at one end of the ordered domain
  EXPECT_FALSE(*IsTClose(*t, {0}, 1, 0.3));
}

TEST(TClosenessTest, RejectsNegativeT) {
  DataTable t = PaperDataset1();
  EXPECT_FALSE(IsTClose(t, t.schema().QuasiIdentifierIndices(), 2, -0.1).ok());
}

TEST(HomogeneityAttackTest, CountsExposedRecords) {
  auto t = HomogeneousExample();
  ASSERT_TRUE(t.ok());
  // Only the zip-100 class (2 records) is homogeneous.
  EXPECT_NEAR(HomogeneityAttackRate(*t, {0}, 1), 2.0 / 7.0, 1e-9);
  // Paper Dataset 1: all classes mixed -> rate 0.
  DataTable d1 = PaperDataset1();
  EXPECT_DOUBLE_EQ(
      HomogeneityAttackRate(d1, d1.schema().QuasiIdentifierIndices(), 3), 0.0);
  DataTable empty(PatientSchema());
  EXPECT_DOUBLE_EQ(HomogeneityAttackRate(empty, {0, 1}, 3), 0.0);
}

}  // namespace
}  // namespace tripriv
