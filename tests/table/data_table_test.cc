#include "table/data_table.h"

#include <gtest/gtest.h>

namespace tripriv {
namespace {

Schema SmallSchema() {
  return Schema({
      {"age", AttributeType::kInteger, AttributeRole::kQuasiIdentifier},
      {"income", AttributeType::kReal, AttributeRole::kConfidential},
      {"city", AttributeType::kCategorical, AttributeRole::kQuasiIdentifier},
  });
}

DataTable SmallTable() {
  auto t = DataTable::FromRows(SmallSchema(), {
                                                  {30, 1000.0, "x"},
                                                  {40, 2000.0, "y"},
                                                  {50, 3000.0, "x"},
                                              });
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

TEST(DataTableTest, FromRowsBasics) {
  DataTable t = SmallTable();
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_columns(), 3u);
  EXPECT_EQ(t.at(1, 0), Value(40));
  EXPECT_EQ(t.at(2, 2), Value("x"));
}

TEST(DataTableTest, AppendValidatesArity) {
  DataTable t(SmallSchema());
  EXPECT_FALSE(t.AppendRow({Value(1)}).ok());
  EXPECT_TRUE(t.AppendRow({Value(1), Value(2.0), Value("z")}).ok());
}

TEST(DataTableTest, AppendValidatesTypes) {
  DataTable t(SmallSchema());
  // Real where integer expected.
  EXPECT_FALSE(t.AppendRow({Value(1.5), Value(2.0), Value("z")}).ok());
  // String where real expected.
  EXPECT_FALSE(t.AppendRow({Value(1), Value("no"), Value("z")}).ok());
  // Integer is acceptable for a real column (numeric coercion).
  EXPECT_TRUE(t.AppendRow({Value(1), Value(2), Value("z")}).ok());
  // Number where categorical expected.
  EXPECT_FALSE(t.AppendRow({Value(1), Value(2.0), Value(3)}).ok());
}

TEST(DataTableTest, NullAllowedEverywhere) {
  DataTable t(SmallSchema());
  EXPECT_TRUE(t.AppendRow({Value::Null(), Value::Null(), Value::Null()}).ok());
}

TEST(DataTableTest, SetValidates) {
  DataTable t = SmallTable();
  EXPECT_TRUE(t.Set(0, 0, Value(99)).ok());
  EXPECT_EQ(t.at(0, 0), Value(99));
  EXPECT_FALSE(t.Set(0, 0, Value("nope")).ok());
}

TEST(DataTableTest, ColumnValues) {
  DataTable t = SmallTable();
  auto col = t.ColumnValues(2);
  EXPECT_EQ(col, (std::vector<Value>{Value("x"), Value("y"), Value("x")}));
}

TEST(DataTableTest, NumericColumn) {
  DataTable t = SmallTable();
  auto ages = t.NumericColumn(size_t{0});
  ASSERT_TRUE(ages.ok());
  EXPECT_EQ(*ages, (std::vector<double>{30, 40, 50}));
  auto by_name = t.NumericColumn("income");
  ASSERT_TRUE(by_name.ok());
  EXPECT_EQ(*by_name, (std::vector<double>{1000, 2000, 3000}));
  EXPECT_FALSE(t.NumericColumn(size_t{2}).ok());   // categorical
  EXPECT_FALSE(t.NumericColumn("missing").ok());
}

TEST(DataTableTest, SetColumnAndSetNumericColumn) {
  DataTable t = SmallTable();
  ASSERT_TRUE(t.SetNumericColumn(1, {1.5, 2.5, 3.5}).ok());
  EXPECT_EQ(t.at(0, 1), Value(1.5));
  // Rounding into an integer column.
  ASSERT_TRUE(t.SetNumericColumn(0, {30.4, 40.6, 50.0}).ok());
  EXPECT_EQ(t.at(0, 0), Value(30));
  EXPECT_EQ(t.at(1, 0), Value(41));
  EXPECT_FALSE(t.SetNumericColumn(0, {1.0}).ok());  // size mismatch
  // Categorical cells stay strings.
  EXPECT_FALSE(t.SetNumericColumn(2, {1.0, 2.0, 3.0}).ok());
  EXPECT_EQ(t.at(0, 2), Value("x"));
  ASSERT_TRUE(t.SetColumn(2, {Value("a"), Value("b"), Value("c")}).ok());
  EXPECT_EQ(t.at(2, 2), Value("c"));
}

TEST(DataTableTest, Project) {
  DataTable t = SmallTable();
  DataTable p = t.Project({2, 0});
  EXPECT_EQ(p.num_columns(), 2u);
  EXPECT_EQ(p.schema().attribute(0).name, "city");
  EXPECT_EQ(p.at(1, 1), Value(40));
}

TEST(DataTableTest, SelectRows) {
  DataTable t = SmallTable();
  DataTable s = t.SelectRows({2, 0});
  EXPECT_EQ(s.num_rows(), 2u);
  EXPECT_EQ(s.at(0, 0), Value(50));
  EXPECT_EQ(s.at(1, 0), Value(30));
}

TEST(DataTableTest, Filter) {
  DataTable t = SmallTable();
  DataTable f = t.Filter(
      [](const std::vector<Value>& row) { return row[0].AsInt() >= 40; });
  EXPECT_EQ(f.num_rows(), 2u);
  EXPECT_EQ(f.at(0, 0), Value(40));
}

TEST(DataTableTest, NumericMatrix) {
  DataTable t = SmallTable();
  auto m = t.NumericMatrix({0, 1});
  ASSERT_TRUE(m.ok());
  EXPECT_EQ((*m)[1], (std::vector<double>{40, 2000}));
  EXPECT_FALSE(t.NumericMatrix({2}).ok());
}

TEST(DataTableTest, PrettyStringShowsHeaderAndTruncation) {
  DataTable t = SmallTable();
  std::string s = t.ToPrettyString(2);
  EXPECT_NE(s.find("age"), std::string::npos);
  EXPECT_NE(s.find("more rows"), std::string::npos);
}

TEST(DataTableTest, EqualityIsDeep) {
  EXPECT_EQ(SmallTable(), SmallTable());
  DataTable t = SmallTable();
  ASSERT_TRUE(t.Set(0, 0, Value(31)).ok());
  EXPECT_FALSE(t == SmallTable());
}

}  // namespace
}  // namespace tripriv
