// Tests for Mondrian, noise addition, rank swapping, and condensation.

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include <gtest/gtest.h>

#include "sdc/anonymity.h"
#include "sdc/condensation.h"
#include "sdc/mondrian.h"
#include "sdc/noise.h"
#include "sdc/rank_swap.h"
#include "stats/descriptive.h"
#include "table/datasets.h"

namespace tripriv {
namespace {

TEST(MondrianTest, OutputIsKAnonymous) {
  DataTable data = MakeClinicalTrial(200, 3);
  for (size_t k : {2u, 5u, 10u}) {
    auto r = MondrianAnonymize(data, k);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GE(AnonymityLevel(r->table), k) << "k=" << k;
    // Every leaf keeps at least k records.
    std::map<size_t, size_t> sizes;
    for (size_t g : r->group_of_row) sizes[g]++;
    for (const auto& [g, size] : sizes) EXPECT_GE(size, k);
  }
}

TEST(MondrianTest, PartitionsFinerThanSingleGroupForSmallK) {
  DataTable data = MakeClinicalTrial(200, 7);
  auto r = MondrianAnonymize(data, 2);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->num_groups, 10u);  // k=2 on 200 records should split a lot
}

TEST(MondrianTest, ConfidentialColumnsUntouched) {
  DataTable data = MakeClinicalTrial(50, 5);
  auto r = MondrianAnonymize(data, 5);
  ASSERT_TRUE(r.ok());
  for (size_t row = 0; row < data.num_rows(); ++row) {
    EXPECT_EQ(data.at(row, 2), r->table.at(row, 2));
    EXPECT_EQ(data.at(row, 3), r->table.at(row, 3));
  }
}

TEST(MondrianTest, ErrorsOnBadInput) {
  DataTable empty(PatientSchema());
  EXPECT_FALSE(MondrianAnonymize(empty, 3).ok());
  DataTable data = MakeClinicalTrial(10, 1);
  EXPECT_FALSE(MondrianAnonymize(data, 0).ok());
  Schema no_qi({{"x", AttributeType::kInteger, AttributeRole::kConfidential}});
  auto t = DataTable::FromRows(no_qi, {{1}});
  ASSERT_TRUE(t.ok());
  EXPECT_FALSE(MondrianAnonymize(*t, 2).ok());
}

TEST(MondrianTest, RefusesNonFiniteValues) {
  // A NaN sort key breaks the strict weak order the median split needs.
  Schema reals({{"x", AttributeType::kReal, AttributeRole::kQuasiIdentifier},
                {"y", AttributeType::kReal, AttributeRole::kQuasiIdentifier}});
  DataTable data(reals);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(data.AppendRow({Value((i * 37) % 101 * 1.5),
                                Value((i * 11) % 53 * 0.25)})
                    .ok());
  }
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    DataTable poisoned = data;
    ASSERT_TRUE(poisoned.Set(1000, 1, Value(bad)).ok());
    const auto got = MondrianAnonymize(poisoned, 5);
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(got.status().message(), "a grouped value is NaN or infinite");
  }
}

TEST(NoiseTest, UncorrelatedNoiseScalesWithAlpha) {
  DataTable data = MakeCensus(2000, 7);
  const size_t income = 4;
  auto orig = data.NumericColumn(income).value();
  const double sd = SampleStddev(orig);
  for (double alpha : {0.1, 0.5, 1.0}) {
    auto r = AddUncorrelatedNoise(data, alpha, {income}, 99);
    ASSERT_TRUE(r.ok());
    auto masked = r->NumericColumn(income).value();
    std::vector<double> noise(orig.size());
    for (size_t i = 0; i < orig.size(); ++i) noise[i] = masked[i] - orig[i];
    EXPECT_NEAR(Mean(noise), 0.0, 0.1 * alpha * sd);
    EXPECT_NEAR(SampleStddev(noise), alpha * sd, 0.1 * alpha * sd);
  }
}

TEST(NoiseTest, ZeroAlphaIsIdentityValues) {
  DataTable data = MakeCensus(100, 7);
  auto r = AddUncorrelatedNoise(data, 0.0, {4}, 5);
  ASSERT_TRUE(r.ok());
  auto orig = data.NumericColumn(size_t{4}).value();
  auto masked = r->NumericColumn(size_t{4}).value();
  for (size_t i = 0; i < orig.size(); ++i) EXPECT_DOUBLE_EQ(orig[i], masked[i]);
}

TEST(NoiseTest, CorrelatedNoisePreservesCorrelationShape) {
  DataTable data = MakeClinicalTrial(4000, 13);
  auto r = AddCorrelatedNoise(data, 0.4, {0, 1}, 42);
  ASSERT_TRUE(r.ok());
  const double orig_corr =
      PearsonCorrelation(data.NumericColumn(size_t{0}).value(),
                         data.NumericColumn(size_t{1}).value());
  const double masked_corr =
      PearsonCorrelation(r->NumericColumn(size_t{0}).value(),
                         r->NumericColumn(size_t{1}).value());
  // Correlated noise with covariance proportional to Cov(X) keeps the
  // correlation coefficient intact in expectation.
  EXPECT_NEAR(orig_corr, masked_corr, 0.07);
}

TEST(NoiseTest, DeterministicInSeed) {
  DataTable data = MakeCensus(50, 3);
  auto a = AddUncorrelatedNoise(data, 0.3, {0, 4}, 7);
  auto b = AddUncorrelatedNoise(data, 0.3, {0, 4}, 7);
  auto c = AddUncorrelatedNoise(data, 0.3, {0, 4}, 8);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_FALSE(*a == *c);
}

TEST(NoiseTest, FixedNoiseMatchesSigma) {
  DataTable data = MakeCensus(3000, 21);
  auto r = AddFixedNoise(data, 25.0, 0, 11);
  ASSERT_TRUE(r.ok());
  auto orig = data.NumericColumn(size_t{0}).value();
  auto masked = r->NumericColumn(size_t{0}).value();
  std::vector<double> noise(orig.size());
  for (size_t i = 0; i < orig.size(); ++i) noise[i] = masked[i] - orig[i];
  EXPECT_NEAR(SampleStddev(noise), 25.0, 1.5);
}

// A NaN or infinite alpha or sigma gets past a `< 0` check; the noise then
// writes every cell of an integer column as -2^63.
TEST(NoiseTest, RejectsBadArguments) {
  DataTable data = MakeCensus(10, 1);
  EXPECT_FALSE(AddUncorrelatedNoise(data, -1.0, {0}, 1).ok());
  EXPECT_FALSE(AddFixedNoise(data, -0.1, 0, 1).ok());
  for (double bad : {std::nan(""), HUGE_VAL}) {
    EXPECT_FALSE(AddUncorrelatedNoise(data, bad, {0}, 1).ok()) << bad;
    EXPECT_FALSE(AddCorrelatedNoise(data, bad, {0, 4}, 1).ok()) << bad;
    EXPECT_FALSE(AddFixedNoise(data, bad, 0, 1).ok()) << bad;
  }
  DataTable single(PatientSchema());
  ASSERT_TRUE(single.AppendRow({170, 70, 150, "N"}).ok());
  EXPECT_FALSE(AddUncorrelatedNoise(single, 0.5, {0}, 1).ok());
}

TEST(RankSwapTest, PreservesMarginalDistributionExactly) {
  DataTable data = MakeCensus(300, 17);
  auto r = RankSwap(data, 10.0, {0, 4}, 23);
  ASSERT_TRUE(r.ok());
  for (size_t c : {0u, 4u}) {
    auto orig = data.NumericColumn(c).value();
    auto masked = r->NumericColumn(c).value();
    std::sort(orig.begin(), orig.end());
    std::sort(masked.begin(), masked.end());
    EXPECT_EQ(orig, masked);
  }
}

TEST(RankSwapTest, ActuallyMovesValues) {
  DataTable data = MakeCensus(300, 17);
  auto r = RankSwap(data, 15.0, {4}, 29);
  ASSERT_TRUE(r.ok());
  auto orig = data.NumericColumn(size_t{4}).value();
  auto masked = r->NumericColumn(size_t{4}).value();
  size_t moved = 0;
  for (size_t i = 0; i < orig.size(); ++i) {
    if (orig[i] != masked[i]) ++moved;
  }
  EXPECT_GT(moved, orig.size() / 2);
}

TEST(RankSwapTest, WindowBoundsSwapDistance) {
  DataTable data = MakeCensus(200, 31);
  const double p = 5.0;
  auto r = RankSwap(data, p, {0}, 37);
  ASSERT_TRUE(r.ok());
  auto orig = data.NumericColumn(size_t{0}).value();
  auto masked = r->NumericColumn(size_t{0}).value();
  // Rank of the masked value must be within ~p% + 1 positions of the
  // original value's rank.
  std::vector<double> sorted = orig;
  std::sort(sorted.begin(), sorted.end());
  auto rank_of = [&](double v) {
    return static_cast<size_t>(std::lower_bound(sorted.begin(), sorted.end(), v) -
                               sorted.begin());
  };
  const size_t window =
      static_cast<size_t>(p / 100.0 * static_cast<double>(orig.size())) + 1;
  for (size_t i = 0; i < orig.size(); ++i) {
    const size_t ro = rank_of(orig[i]);
    const size_t rm = rank_of(masked[i]);
    const size_t dist = ro > rm ? ro - rm : rm - ro;
    // Ties can widen apparent rank distance slightly; allow 2x slack.
    EXPECT_LE(dist, 2 * window + 2);
  }
}

// A NaN window gets past a `p < 0 || p > 100` check and reaches
// static_cast<size_t>(NaN), which is undefined behaviour.
TEST(RankSwapTest, RejectsBadWindow) {
  DataTable data = MakeCensus(10, 1);
  EXPECT_FALSE(RankSwap(data, -1.0, {0}, 1).ok());
  EXPECT_FALSE(RankSwap(data, 101.0, {0}, 1).ok());
  EXPECT_FALSE(RankSwap(data, std::nan(""), {0}, 1).ok());
}

TEST(CondensationTest, PreservesMeanAndCovarianceApproximately) {
  DataTable data = MakeClinicalTrial(1000, 41);
  // Condense real-valued copies to dodge integer rounding.
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
  auto r = Condense(real_data, 25, {0, 1}, 43);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto orig = real_data.NumericMatrix({0, 1}).value();
  auto synth = r->table.NumericMatrix({0, 1}).value();
  const auto mo = ColumnMeans(orig);
  const auto ms = ColumnMeans(synth);
  EXPECT_NEAR(mo[0], ms[0], 1.0);
  EXPECT_NEAR(mo[1], ms[1], 1.5);
  const auto co = CovarianceMatrix(orig);
  const auto cs = CovarianceMatrix(synth);
  EXPECT_NEAR(co[0][1] / co[1][1], cs[0][1] / cs[1][1], 0.25);
}

TEST(CondensationTest, SyntheticValuesDifferFromOriginals) {
  DataTable data = MakeClinicalTrial(100, 47);
  auto r = Condense(data, 10, {0, 1}, 49);
  ASSERT_TRUE(r.ok());
  size_t changed = 0;
  for (size_t row = 0; row < data.num_rows(); ++row) {
    if (!(data.at(row, 0) == r->table.at(row, 0))) ++changed;
  }
  EXPECT_GT(changed, data.num_rows() / 2);
}

TEST(CondensationTest, DeterministicInSeed) {
  DataTable data = MakeClinicalTrial(60, 51);
  auto a = Condense(data, 6, {0, 1}, 1);
  auto b = Condense(data, 6, {0, 1}, 1);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->table, b->table);
}

TEST(CondensationTest, GroupsRespectK) {
  DataTable data = MakeClinicalTrial(90, 53);
  auto r = Condense(data, 9, 55);
  ASSERT_TRUE(r.ok());
  std::map<size_t, size_t> sizes;
  for (size_t g : r->group_of_row) sizes[g]++;
  for (const auto& [g, size] : sizes) EXPECT_GE(size, 9u);
}

}  // namespace
}  // namespace tripriv
