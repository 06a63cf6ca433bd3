#include "table/predicate.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "table/datasets.h"
#include "util/random.h"

namespace tripriv {
namespace {

TEST(PredicateTest, TrueMatchesAll) {
  DataTable t = PaperDataset2();
  auto rows = Predicate::True().MatchingRows(t);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), t.num_rows());
}

TEST(PredicateTest, PaperSection3Predicate) {
  // height < 165 AND weight > 105 isolates exactly one record of Dataset 2.
  DataTable t = PaperDataset2();
  Predicate p = Predicate::And(
      Predicate::Compare("height", CompareOp::kLt, Value(165)),
      Predicate::Compare("weight", CompareOp::kGt, Value(105)));
  auto rows = p.MatchingRows(t);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  // ... whose blood pressure is 146.
  const size_t bp_col = *t.schema().FindIndex("blood_pressure");
  EXPECT_EQ(t.at((*rows)[0], bp_col), Value(146));
}

TEST(PredicateTest, AllComparisonOps) {
  DataTable t = PaperDataset1();
  auto count = [&](Predicate p) {
    auto rows = p.MatchingRows(t);
    EXPECT_TRUE(rows.ok());
    return rows->size();
  };
  EXPECT_EQ(count(Predicate::Compare("height", CompareOp::kEq, Value(160))), 4u);
  EXPECT_EQ(count(Predicate::Compare("height", CompareOp::kNe, Value(160))), 6u);
  EXPECT_EQ(count(Predicate::Compare("height", CompareOp::kLt, Value(170))), 4u);
  EXPECT_EQ(count(Predicate::Compare("height", CompareOp::kLe, Value(170))), 7u);
  EXPECT_EQ(count(Predicate::Compare("height", CompareOp::kGt, Value(170))), 3u);
  EXPECT_EQ(count(Predicate::Compare("height", CompareOp::kGe, Value(170))), 6u);
}

TEST(PredicateTest, StringComparisons) {
  DataTable t = PaperDataset1();
  Predicate y = Predicate::Compare("aids", CompareOp::kEq, Value("Y"));
  auto rows = y.MatchingRows(t);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);  // Y N N N Y N N Y N N
}

TEST(PredicateTest, OrAndNot) {
  DataTable t = PaperDataset1();
  Predicate tall_or_short = Predicate::Or(
      Predicate::Compare("height", CompareOp::kGe, Value(180)),
      Predicate::Compare("height", CompareOp::kLe, Value(160)));
  auto rows = tall_or_short.MatchingRows(t);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 7u);

  auto middle = Predicate::Not(tall_or_short).MatchingRows(t);
  ASSERT_TRUE(middle.ok());
  EXPECT_EQ(middle->size(), 3u);
}

TEST(PredicateTest, TypeMismatchIsError) {
  DataTable t = PaperDataset1();
  Predicate p = Predicate::Compare("aids", CompareOp::kLt, Value(10));
  EXPECT_FALSE(p.MatchingRows(t).ok());
}

TEST(PredicateTest, UnknownAttributeIsError) {
  DataTable t = PaperDataset1();
  Predicate p = Predicate::Compare("shoe_size", CompareOp::kEq, Value(42));
  auto r = p.MatchingRows(t);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(PredicateTest, NullCellsMatchOnlyNe) {
  Schema s({{"x", AttributeType::kInteger, AttributeRole::kNonConfidential}});
  auto t = DataTable::FromRows(s, {{Value::Null()}, {5}});
  ASSERT_TRUE(t.ok());
  auto eq = Predicate::Compare("x", CompareOp::kEq, Value(5)).MatchingRows(*t);
  ASSERT_TRUE(eq.ok());
  EXPECT_EQ(eq->size(), 1u);
  auto ne = Predicate::Compare("x", CompareOp::kNe, Value(7)).MatchingRows(*t);
  ASSERT_TRUE(ne.ok());
  EXPECT_EQ(ne->size(), 2u);  // null counts as "not equal"
  auto lt = Predicate::Compare("x", CompareOp::kLt, Value(100)).MatchingRows(*t);
  ASSERT_TRUE(lt.ok());
  EXPECT_EQ(lt->size(), 1u);
}

TEST(PredicateTest, ReferencedAttributes) {
  Predicate p = Predicate::And(
      Predicate::Compare("height", CompareOp::kLt, Value(165)),
      Predicate::Not(Predicate::Compare("weight", CompareOp::kGt, Value(105))));
  EXPECT_EQ(p.ReferencedAttributes(),
            (std::vector<std::string>{"height", "weight"}));
  EXPECT_TRUE(Predicate::True().ReferencedAttributes().empty());
}

TEST(PredicateTest, ToStringRendersSqlish) {
  Predicate p = Predicate::And(
      Predicate::Compare("height", CompareOp::kLt, Value(165)),
      Predicate::Compare("aids", CompareOp::kEq, Value("Y")));
  EXPECT_EQ(p.ToString(), "(height < 165 AND aids = 'Y')");
  EXPECT_EQ(Predicate::True().ToString(), "TRUE");
}

TEST(PredicateTest, ShortCircuitDoesNotMaskErrors) {
  // AND short-circuits on false LHS, so an invalid RHS never evaluates.
  DataTable t = PaperDataset1();
  Predicate p = Predicate::And(
      Predicate::Compare("height", CompareOp::kLt, Value(0)),
      Predicate::Compare("missing", CompareOp::kEq, Value(1)));
  auto rows = p.MatchingRows(t);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

constexpr int64_t kTwo53 = int64_t{1} << 53;

TEST(PredicateTest, LargeIntegersCompareExactly) {
  // 2^53 and 2^53 + 1 are the same double, so an integer column must not
  // compare through double.
  Schema s({{"x", AttributeType::kInteger, AttributeRole::kNonConfidential}});
  auto t = DataTable::FromRows(s, {{Value(kTwo53)}, {Value(kTwo53 + 1)}});
  ASSERT_TRUE(t.ok());
  auto rows = [&](CompareOp op) {
    auto r = Predicate::Compare("x", op, Value(kTwo53 + 1)).MatchingRows(*t);
    EXPECT_TRUE(r.ok());
    return *r;
  };
  EXPECT_EQ(rows(CompareOp::kEq), (std::vector<size_t>{1}));
  EXPECT_EQ(rows(CompareOp::kNe), (std::vector<size_t>{0}));
  EXPECT_EQ(rows(CompareOp::kLt), (std::vector<size_t>{0}));
  EXPECT_EQ(rows(CompareOp::kLe), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(rows(CompareOp::kGt), (std::vector<size_t>{}));
  EXPECT_EQ(rows(CompareOp::kGe), (std::vector<size_t>{1}));
}

TEST(PredicateTest, UnknownAttributeOnEmptyTableIsOk) {
  // No row reaches the leaf, so nothing fails.
  DataTable t(PaperDataset1().schema());
  auto rows = Predicate::Compare("shoe_size", CompareOp::kEq, Value(42))
                  .MatchingRows(t);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_TRUE(rows->empty());
}

// ---------------------------------------------------------------------------
// Reference evaluator: a plain row-at-a-time recursion (a name lookup per
// row and leaf, short-circuit by early return) with the exact integer
// compare. It walks a test-local tree, mirrored into a Predicate, so it
// needs nothing of Predicate's internals.

struct RefTree {
  enum class Kind { kTrue, kCompare, kAnd, kOr, kNot };
  Kind kind = Kind::kTrue;
  std::string attribute;
  CompareOp op = CompareOp::kEq;
  Value literal;
  std::vector<RefTree> children;
};

Predicate ToPredicate(const RefTree& t) {
  switch (t.kind) {
    case RefTree::Kind::kTrue:
      return Predicate::True();
    case RefTree::Kind::kCompare:
      return Predicate::Compare(t.attribute, t.op, t.literal);
    case RefTree::Kind::kAnd:
      return Predicate::And(ToPredicate(t.children[0]),
                            ToPredicate(t.children[1]));
    case RefTree::Kind::kOr:
      return Predicate::Or(ToPredicate(t.children[0]),
                           ToPredicate(t.children[1]));
    case RefTree::Kind::kNot:
      return Predicate::Not(ToPredicate(t.children[0]));
  }
  return Predicate::True();
}

template <typename T>
bool RefHolds(CompareOp op, const T& a, const T& b) {
  switch (op) {
    case CompareOp::kEq:
      return a == b;
    case CompareOp::kNe:
      return a != b;
    case CompareOp::kLt:
      return a < b;
    case CompareOp::kLe:
      return a <= b;
    case CompareOp::kGt:
      return a > b;
    case CompareOp::kGe:
      return a >= b;
  }
  return false;
}

Result<bool> RefCompare(const Value& cell, AttributeType type, CompareOp op,
                        const Value& literal) {
  if (cell.is_null()) return op == CompareOp::kNe;
  if (type == AttributeType::kInteger && literal.is_int()) {
    return RefHolds(op, cell.AsInt(), literal.AsInt());
  }
  if (cell.is_numeric() && literal.is_numeric()) {
    return RefHolds(op, cell.ToDouble(), literal.ToDouble());
  }
  if (cell.is_string() && literal.is_string()) {
    return RefHolds(op, cell.AsString().compare(literal.AsString()), 0);
  }
  return Status::InvalidArgument("type mismatch in comparison");
}

Result<bool> RefMatches(const RefTree& t, const DataTable& table, size_t row) {
  switch (t.kind) {
    case RefTree::Kind::kTrue:
      return true;
    case RefTree::Kind::kCompare: {
      TRIPRIV_ASSIGN_OR_RETURN(size_t col, table.schema().IndexOf(t.attribute));
      return RefCompare(table.at(row, col), table.schema().attribute(col).type,
                        t.op, t.literal);
    }
    case RefTree::Kind::kAnd: {
      TRIPRIV_ASSIGN_OR_RETURN(bool a, RefMatches(t.children[0], table, row));
      if (!a) return false;
      return RefMatches(t.children[1], table, row);
    }
    case RefTree::Kind::kOr: {
      TRIPRIV_ASSIGN_OR_RETURN(bool a, RefMatches(t.children[0], table, row));
      if (a) return true;
      return RefMatches(t.children[1], table, row);
    }
    case RefTree::Kind::kNot: {
      TRIPRIV_ASSIGN_OR_RETURN(bool a, RefMatches(t.children[0], table, row));
      return !a;
    }
  }
  return Status::Internal("corrupt tree");
}

Result<std::vector<size_t>> RefMatchingRows(const RefTree& t,
                                            const DataTable& table) {
  std::vector<size_t> out;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    TRIPRIV_ASSIGN_OR_RETURN(bool match, RefMatches(t, table, r));
    if (match) out.push_back(r);
  }
  return out;
}

/// Integers around 2^53 and the int64 extremes, where double loses them.
Value BigInt64(Rng* rng) {
  static const int64_t kBig[] = {kTwo53 - 1, kTwo53, kTwo53 + 1,
                                 std::numeric_limits<int64_t>::max(),
                                 std::numeric_limits<int64_t>::min()};
  return Value(kBig[rng->UniformU64(5)]);
}

/// A table with an integer, a real (holding ints and reals), a categorical
/// and a mostly-null integer column; `null_rate` of the other cells null.
DataTable RandomTable(size_t n, double null_rate, Rng* rng) {
  Schema schema({{"i", AttributeType::kInteger, AttributeRole::kQuasiIdentifier},
                 {"r", AttributeType::kReal, AttributeRole::kQuasiIdentifier},
                 {"s", AttributeType::kCategorical,
                  AttributeRole::kQuasiIdentifier},
                 {"sparse", AttributeType::kInteger,
                  AttributeRole::kConfidential}});
  static const char* kLabels[] = {"", "a", "ab", "b", "c"};
  auto integer = [rng] {
    if (rng->Bernoulli(0.1)) return BigInt64(rng);
    return Value(rng->UniformInt(-2, 5));
  };
  auto real = [rng] {
    if (rng->Bernoulli(0.05)) return BigInt64(rng);
    if (rng->Bernoulli(0.5)) return Value(rng->UniformInt(-2, 5));
    return Value(0.5 * static_cast<double>(rng->UniformInt(-4, 10)));
  };
  auto label = [rng] { return Value(kLabels[rng->UniformU64(5)]); };
  DataTable table(schema);
  for (size_t r = 0; r < n; ++r) {
    std::vector<Value> row;
    row.push_back(rng->Bernoulli(null_rate) ? Value::Null() : integer());
    row.push_back(rng->Bernoulli(null_rate) ? Value::Null() : real());
    row.push_back(rng->Bernoulli(null_rate) ? Value::Null() : label());
    row.push_back(rng->Bernoulli(0.9) ? Value::Null()
                                      : Value(rng->UniformInt(0, 3)));
    auto st = table.AppendRow(std::move(row));
    TRIPRIV_CHECK(st.ok()) << st.ToString();
  }
  return table;
}

/// A literal for a leaf on `col`: mostly near a cell of that column (so
/// comparisons split the rows), sometimes of the wrong type or null.
Value RandomLiteral(const DataTable& table, size_t col, Rng* rng) {
  if (rng->Bernoulli(0.08)) {
    switch (rng->UniformU64(3)) {
      case 0:
        return Value::Null();
      case 1:
        return Value("a");
      default:
        return Value(rng->UniformInt(0, 3));
    }
  }
  const AttributeType type = table.schema().attribute(col).type;
  if (type == AttributeType::kCategorical) {
    if (table.num_rows() == 0 || rng->Bernoulli(0.2)) return Value("b");
    const Value& v = table.at(rng->UniformU64(table.num_rows()), col);
    return v.is_null() ? Value("zz") : v;
  }
  if (rng->Bernoulli(0.1)) return BigInt64(rng);
  Value base = Value(rng->UniformInt(-2, 5));
  if (table.num_rows() > 0) {
    const Value& v = table.at(rng->UniformU64(table.num_rows()), col);
    if (!v.is_null()) base = v;
  }
  if (rng->Bernoulli(0.3)) return Value(base.ToDouble() + 0.5);
  if (!base.is_int()) return base;
  // Step to a neighbour, staying inside int64 (its extremes are drawn too).
  const int64_t v = base.AsInt();
  const int64_t step = rng->UniformInt(-1, 1);
  if ((step < 0 && v == std::numeric_limits<int64_t>::min()) ||
      (step > 0 && v == std::numeric_limits<int64_t>::max())) {
    return base;
  }
  return Value(v + step);
}

RefTree RandomTree(const DataTable& table, int depth, Rng* rng) {
  RefTree t;
  if (depth == 0 || rng->Bernoulli(0.3)) {
    if (rng->Bernoulli(0.03)) return t;  // TRUE
    t.kind = RefTree::Kind::kCompare;
    t.op = static_cast<CompareOp>(rng->UniformU64(6));
    if (table.num_columns() == 0 || rng->Bernoulli(0.04)) {
      t.attribute = "no_such_column";
      t.literal = Value(1);
      return t;
    }
    const size_t col = rng->UniformU64(table.num_columns());
    t.attribute = table.schema().attribute(col).name;
    t.literal = RandomLiteral(table, col, rng);
    return t;
  }
  const uint64_t pick = rng->UniformU64(5);
  t.kind = pick < 2 ? RefTree::Kind::kAnd
                    : (pick < 4 ? RefTree::Kind::kOr : RefTree::Kind::kNot);
  t.children.push_back(RandomTree(table, depth - 1, rng));
  if (t.kind != RefTree::Kind::kNot) {
    t.children.push_back(RandomTree(table, depth - 1, rng));
  }
  return t;
}

TEST(PredicateReferenceTest, RandomTreesMatchTheRowAtATimeEvaluator) {
  Rng rng(20260);
  std::vector<std::pair<std::string, DataTable>> tables;
  for (size_t n : {0, 1, 63, 64, 65, 127, 128, 129, 1000}) {
    const double null_rate = n % 2 == 0 ? 0.15 : 0.4;
    tables.emplace_back("random_n" + std::to_string(n),
                        RandomTable(n, null_rate, &rng));
  }
  tables.emplace_back("census_n1000", MakeCensus(1000, 5));

  constexpr size_t kTreesPerTable = 1200;
  size_t trees = 0, failed = 0, failed_past_row0 = 0, mismatches = 0;
  for (const auto& [name, table] : tables) {
    for (size_t k = 0; k < kTreesPerTable; ++k) {
      const RefTree tree = RandomTree(table, 4, &rng);
      const Predicate p = ToPredicate(tree);
      auto got = p.MatchingRows(table);
      auto want = RefMatchingRows(tree, table);
      ++trees;
      if (!want.ok()) {
        ++failed;
        // A failing tree whose row 0 evaluates cleanly fails further in.
        if (table.num_rows() > 1 && RefMatches(tree, table, 0).ok()) {
          ++failed_past_row0;
        }
      }
      const bool same =
          got.ok() == want.ok() &&
          (got.ok() ? *got == *want
                    : got.status().code() == want.status().code() &&
                          got.status().message() == want.status().message());
      if (!same && ++mismatches <= 5) {
        ADD_FAILURE() << name << ": " << p.ToString() << "\n  got "
                      << (got.ok() ? std::to_string(got->size()) + " rows"
                                   : got.status().ToString())
                      << "\n  want "
                      << (want.ok() ? std::to_string(want->size()) + " rows"
                                    : want.status().ToString());
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << trees << " trees";
  EXPECT_GE(trees, 10000u);
  // The generator must exercise both outcomes, and errors past the first
  // row, or the comparison proves little.
  EXPECT_GT(failed, trees / 10);
  EXPECT_LT(failed, trees / 2);
  EXPECT_GT(failed_past_row0, trees / 50);
}

}  // namespace
}  // namespace tripriv
