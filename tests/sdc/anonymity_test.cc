#include "sdc/anonymity.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "sdc/equivalence.h"
#include "table/datasets.h"

namespace tripriv {
namespace {

TEST(EquivalenceTest, GroupsByKeyCombination) {
  DataTable t = PaperDataset1();
  auto classes = GroupByQuasiIdentifiers(t);
  EXPECT_EQ(classes.classes.size(), 3u);
  EXPECT_EQ(classes.MinClassSize(), 3u);
  size_t covered = 0;
  for (const auto& cls : classes.classes) covered += cls.size();
  EXPECT_EQ(covered, t.num_rows());
}

TEST(EquivalenceTest, EmptyTable) {
  DataTable t(PatientSchema());
  auto classes = GroupByQuasiIdentifiers(t);
  EXPECT_TRUE(classes.classes.empty());
  EXPECT_EQ(classes.MinClassSize(), 0u);
}

TEST(EquivalenceTest, NullCellsGroupTogether) {
  Schema s({{"x", AttributeType::kInteger, AttributeRole::kQuasiIdentifier}});
  auto t = DataTable::FromRows(s, {{Value::Null()}, {Value::Null()}, {1}});
  ASSERT_TRUE(t.ok());
  auto classes = GroupByQuasiIdentifiers(*t);
  EXPECT_EQ(classes.classes.size(), 2u);
}

TEST(EquivalenceTest, LargeIntegersFormDistinctClasses) {
  // 2^53 and 2^53 + 1 share a double: comparing them through double put
  // both rows in one class, and the k-gate passed k = 2 on two unique rows.
  Schema s({{"x", AttributeType::kInteger, AttributeRole::kQuasiIdentifier},
            {"y", AttributeType::kInteger, AttributeRole::kConfidential}});
  auto t = DataTable::FromRows(
      s, {{Value(int64_t{9007199254740992}), Value(int64_t{9007199254740992})},
          {Value(int64_t{9007199254740993}), Value(int64_t{9007199254740993})}});
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(GroupByQuasiIdentifiers(*t).classes.size(), 2u);
  EXPECT_EQ(AnonymityLevel(*t), 1u);
  EXPECT_FALSE(IsKAnonymous(*t, 2));
  // One class over no columns: both confidential values are distinct.
  EXPECT_EQ(SensitivityLevel(*t, {}, 1), 2u);
}

TEST(EquivalenceTest, NanCellsFormSingletonClasses) {
  // A NaN cell equals nothing, not even another NaN: each such row is a
  // class of its own, while +0.0 and -0.0 share one.
  Schema s({{"x", AttributeType::kReal, AttributeRole::kQuasiIdentifier}});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto t = DataTable::FromRows(s, {{nan}, {0.0}, {nan}, {-0.0}, {nan}});
  ASSERT_TRUE(t.ok());
  const EquivalenceClasses classes = GroupByQuasiIdentifiers(*t);
  const std::vector<std::vector<size_t>> expected = {{0}, {1, 3}, {2}, {4}};
  EXPECT_EQ(classes.classes, expected);
  EXPECT_EQ(ClassSizes(*t, {0}), (std::vector<size_t>{1, 2, 1, 1}));
  EXPECT_EQ(AnonymityLevel(*t), 1u);
}

TEST(EquivalenceTest, GroupByExplicitColumns) {
  DataTable t = PaperDataset1();
  // Grouping on a single key attribute coarsens the partition.
  auto by_height = GroupByColumns(t, {0});
  EXPECT_EQ(by_height.classes.size(), 3u);
  auto by_all = GroupByColumns(t, {0, 1, 2, 3});
  EXPECT_EQ(by_all.MinClassSize(), 1u);  // blood pressures are unique
}

TEST(AnonymityTest, PaperDataset1Is3Anonymous) {
  DataTable t = PaperDataset1();
  EXPECT_EQ(AnonymityLevel(t), 3u);
  EXPECT_TRUE(IsKAnonymous(t, 3));
  EXPECT_TRUE(IsKAnonymous(t, 2));
  EXPECT_FALSE(IsKAnonymous(t, 4));
}

TEST(AnonymityTest, PaperDataset2IsNotAnonymous) {
  DataTable t = PaperDataset2();
  EXPECT_EQ(AnonymityLevel(t), 1u);
  EXPECT_FALSE(IsKAnonymous(t, 2));
  EXPECT_TRUE(IsKAnonymous(t, 1));
}

TEST(AnonymityTest, EmptyTableLevelZero) {
  DataTable t(PatientSchema());
  EXPECT_EQ(AnonymityLevel(t), 0u);
  EXPECT_FALSE(IsKAnonymous(t, 1));
}

TEST(AnonymityTest, SensitivityLevelOnDataset1) {
  DataTable t = PaperDataset1();
  const auto qi = t.schema().QuasiIdentifierIndices();
  // Every class has both Y and N in the aids column (col 3).
  EXPECT_EQ(SensitivityLevel(t, qi, 3), 2u);
  // Blood pressures (col 2) are unique within classes: 3 distinct in the
  // size-3 classes, 4 in the size-4 class -> min is 3.
  EXPECT_EQ(SensitivityLevel(t, qi, 2), 3u);
}

TEST(AnonymityTest, PSensitiveKAnonymity) {
  DataTable t = PaperDataset1();
  EXPECT_TRUE(IsPSensitiveKAnonymous(t, 3, 2));
  EXPECT_FALSE(IsPSensitiveKAnonymous(t, 3, 3));  // aids has only 2 values
  EXPECT_FALSE(IsPSensitiveKAnonymous(t, 4, 2));  // not 4-anonymous
  EXPECT_FALSE(IsPSensitiveKAnonymous(PaperDataset2(), 3, 2));
}

TEST(AnonymityTest, HomogeneousClassIsNotPSensitive) {
  // A 2-anonymous dataset whose class shares one confidential value: the
  // footnote-3 case where k-anonymity alone fails to protect respondents.
  Schema s({
      {"zip", AttributeType::kInteger, AttributeRole::kQuasiIdentifier},
      {"disease", AttributeType::kCategorical, AttributeRole::kConfidential},
  });
  auto t = DataTable::FromRows(
      s, {{100, "flu"}, {100, "flu"}, {200, "flu"}, {200, "cancer"}});
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(IsKAnonymous(*t, 2));
  EXPECT_FALSE(IsPSensitiveKAnonymous(*t, 2, 2));
  EXPECT_EQ(DistinctLDiversity(*t, 1), 1u);
}

TEST(AnonymityTest, UniquenessFraction) {
  DataTable t2 = PaperDataset2();
  const auto qi = t2.schema().QuasiIdentifierIndices();
  EXPECT_DOUBLE_EQ(UniquenessFraction(t2, qi), 1.0);  // all keys unique
  DataTable t1 = PaperDataset1();
  EXPECT_DOUBLE_EQ(UniquenessFraction(t1, t1.schema().QuasiIdentifierIndices()),
                   0.0);
  DataTable empty(PatientSchema());
  EXPECT_DOUBLE_EQ(UniquenessFraction(empty, qi), 0.0);
}

}  // namespace
}  // namespace tripriv
