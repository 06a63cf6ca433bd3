#include "table/value.h"

#include <gtest/gtest.h>

namespace tripriv {
namespace {

TEST(ValueTest, NullBasics) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_FALSE(v.is_numeric());
  EXPECT_EQ(v, Value::Null());
  EXPECT_EQ(v.ToDisplayString(), "");
}

TEST(ValueTest, IntBasics) {
  Value v(42);
  EXPECT_TRUE(v.is_int());
  EXPECT_TRUE(v.is_numeric());
  EXPECT_EQ(v.AsInt(), 42);
  EXPECT_DOUBLE_EQ(v.ToDouble(), 42.0);
  EXPECT_EQ(v.ToDisplayString(), "42");
}

TEST(ValueTest, RealBasics) {
  Value v(3.5);
  EXPECT_TRUE(v.is_real());
  EXPECT_DOUBLE_EQ(v.AsReal(), 3.5);
  EXPECT_DOUBLE_EQ(v.ToDouble(), 3.5);
  EXPECT_EQ(v.ToDisplayString(), "3.5");
}

TEST(ValueTest, StringBasics) {
  Value v("hello");
  EXPECT_TRUE(v.is_string());
  EXPECT_EQ(v.AsString(), "hello");
  EXPECT_EQ(v.ToDisplayString(), "hello");
}

TEST(ValueTest, IntAndRealAreDistinctTypes) {
  EXPECT_NE(Value(1), Value(1.0));
  EXPECT_EQ(Value(1), Value(int64_t{1}));
}

TEST(ValueTest, Equality) {
  EXPECT_EQ(Value("a"), Value("a"));
  EXPECT_NE(Value("a"), Value("b"));
  EXPECT_NE(Value("1"), Value(1));
  EXPECT_NE(Value::Null(), Value(0));
}

TEST(ValueTest, OrderingNullNumericString) {
  EXPECT_LT(Value::Null(), Value(-100));
  EXPECT_LT(Value(5), Value("a"));
  EXPECT_LT(Value(2), Value(10));
  EXPECT_LT(Value(2.5), Value(3));
  EXPECT_LT(Value("apple"), Value("banana"));
  EXPECT_FALSE(Value::Null() < Value::Null());
}

TEST(ValueTest, OrderingIsStrictWeak) {
  // Numerically equal but differently typed values order consistently.
  Value i(1);
  Value r(1.0);
  EXPECT_TRUE(i < r || r < i);
  EXPECT_FALSE(i < r && r < i);
}

TEST(ValueTest, IntegersCompareExactlyPastTwoToThe53) {
  // 2^53 + 1 has no double of its own: it rounds to 2^53.
  const Value two53(int64_t{9007199254740992});
  const Value two53_plus_one(int64_t{9007199254740993});
  const Value real_two53(9007199254740992.0);
  EXPECT_LT(two53, two53_plus_one);
  EXPECT_LT(two53_plus_one, real_two53);
  EXPECT_LT(two53, real_two53);
  EXPECT_FALSE(two53_plus_one < two53);
  EXPECT_FALSE(real_two53 < two53_plus_one);
  EXPECT_LT(Value(int64_t{-9007199254740993}), Value(int64_t{-9007199254740992}));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(7).Hash(), Value(7).Hash());
  EXPECT_EQ(Value("x").Hash(), Value("x").Hash());
  EXPECT_EQ(Value::Null().Hash(), Value::Null().Hash());
}

TEST(ValueDeathTest, WrongAccessorAborts) {
  EXPECT_DEATH({ (void)Value("s").AsInt(); }, "CHECK failed");
  EXPECT_DEATH({ (void)Value(1).AsReal(); }, "CHECK failed");
  EXPECT_DEATH({ (void)Value(1.0).AsString(); }, "CHECK failed");
  EXPECT_DEATH({ (void)Value("s").ToDouble(); }, "CHECK failed");
}

}  // namespace
}  // namespace tripriv
