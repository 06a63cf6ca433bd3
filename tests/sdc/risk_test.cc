// Tests for disclosure-risk and information-loss measurement.

#include <gtest/gtest.h>

#include <cmath>

#include "sdc/information_loss.h"
#include "sdc/microaggregation.h"
#include "sdc/noise.h"
#include "sdc/risk.h"
#include "table/datasets.h"

namespace tripriv {
namespace {

TEST(LinkageTest, UnmaskedDataFullyLinkable) {
  DataTable data = MakeClinicalTrial(100, 3);
  auto r = DistanceLinkageAttack(data, data);
  ASSERT_TRUE(r.ok());
  // Records with duplicated QI pairs cause fractional credit; nearly all
  // records should still link.
  EXPECT_GT(r->correct_fraction, 0.9);
  EXPECT_EQ(r->total, 100u);
}

TEST(LinkageTest, MicroaggregationReducesLinkage) {
  DataTable data = MakeClinicalTrial(200, 5);
  auto masked = MdavMicroaggregate(data, 5);
  ASSERT_TRUE(masked.ok());
  auto attack = DistanceLinkageAttack(data, masked->table);
  ASSERT_TRUE(attack.ok());
  // Within a group of >= 5 identical centroids the attacker's expected hit
  // rate is at most 1/5 per record.
  EXPECT_LE(attack->correct_fraction, 1.0 / 5.0 + 0.05);
}

TEST(LinkageTest, LinkageDecreasesWithK) {
  DataTable data = MakeClinicalTrial(300, 7);
  double prev = 1.0;
  for (size_t k : {2u, 5u, 15u}) {
    auto masked = MdavMicroaggregate(data, k);
    ASSERT_TRUE(masked.ok());
    auto attack = DistanceLinkageAttack(data, masked->table);
    ASSERT_TRUE(attack.ok());
    EXPECT_LT(attack->correct_fraction, prev + 0.02) << "k=" << k;
    prev = attack->correct_fraction;
  }
  EXPECT_LT(prev, 0.12);
}

TEST(LinkageTest, NoiseReducesLinkageMonotonically) {
  DataTable data = MakeClinicalTrial(200, 9);
  auto low = AddUncorrelatedNoise(data, 0.1, {0, 1}, 1);
  auto high = AddUncorrelatedNoise(data, 2.0, {0, 1}, 1);
  ASSERT_TRUE(low.ok() && high.ok());
  auto a_low = DistanceLinkageAttack(data, *low);
  auto a_high = DistanceLinkageAttack(data, *high);
  ASSERT_TRUE(a_low.ok() && a_high.ok());
  EXPECT_GT(a_low->correct_fraction, a_high->correct_fraction);
}

TEST(LinkageTest, ErrorsOnMisalignedTables) {
  DataTable a = MakeClinicalTrial(10, 1);
  DataTable b = MakeClinicalTrial(11, 1);
  EXPECT_FALSE(DistanceLinkageAttack(a, b).ok());
  EXPECT_FALSE(DistanceLinkageAttack(a, a, {}).ok());
  // A column past the width is refused, not read (it used to abort).
  EXPECT_EQ(DistanceLinkageAttack(a, a, {0, 99}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ReidentificationRateTest, BoundsForPaperDatasets) {
  // Dataset 2: all keys unique -> rate 1. Dataset 1: 3 classes of 10 rows.
  EXPECT_DOUBLE_EQ(ExpectedReidentificationRate(PaperDataset2()), 1.0);
  EXPECT_DOUBLE_EQ(ExpectedReidentificationRate(PaperDataset1()), 0.3);
  DataTable empty(PatientSchema());
  EXPECT_DOUBLE_EQ(ExpectedReidentificationRate(empty), 0.0);
}

TEST(ReidentificationRateTest, KAnonymityBoundsRate) {
  DataTable data = MakeClinicalTrial(200, 13);
  for (size_t k : {4u, 10u}) {
    auto masked = MdavMicroaggregate(data, k);
    ASSERT_TRUE(masked.ok());
    EXPECT_LE(ExpectedReidentificationRate(masked->table),
              1.0 / static_cast<double>(k) + 1e-9);
  }
}

TEST(IntervalDisclosureTest, IdentityFullyDiscloses) {
  DataTable data = MakeClinicalTrial(50, 15);
  auto rate = IntervalDisclosureRate(data, data, 0, 1.0);
  ASSERT_TRUE(rate.ok());
  EXPECT_DOUBLE_EQ(*rate, 1.0);
}

TEST(IntervalDisclosureTest, HeavyNoiseAvoidsDisclosure) {
  DataTable data = MakeClinicalTrial(500, 17);
  auto noisy = AddUncorrelatedNoise(data, 3.0, {0}, 3);
  ASSERT_TRUE(noisy.ok());
  auto rate = IntervalDisclosureRate(data, *noisy, 0, 2.0);
  ASSERT_TRUE(rate.ok());
  EXPECT_LT(*rate, 0.5);
}

TEST(IntervalDisclosureTest, ValidatesArguments) {
  DataTable a = MakeClinicalTrial(10, 1);
  DataTable b = MakeClinicalTrial(9, 1);
  EXPECT_FALSE(IntervalDisclosureRate(a, b, 0, 5.0).ok());
  EXPECT_FALSE(IntervalDisclosureRate(a, a, 0, -1.0).ok());
  EXPECT_FALSE(IntervalDisclosureRate(a, a, 0, 101.0).ok());
}

// A NaN window passed the old `w < 0 || w > 100` check and disclosed
// nothing; a column past either table's width aborted the process.
TEST(IntervalDisclosureTest, NanWindowAndOutOfRangeColumnAreRefused) {
  DataTable a = MakeClinicalTrial(10, 1);
  const DataTable narrow = a.Project({0});
  const DataTable empty = a.Filter([](const std::vector<Value>&) {
    return false;
  });
  for (const auto& rate :
       {IntervalDisclosureRate(a, a, 0, std::nan("")),
        IntervalDisclosureRate(a, a, a.num_columns(), 5.0),
        IntervalDisclosureRate(a, narrow, 1, 5.0),
        IntervalDisclosureRate(empty, empty, 99, 5.0)}) {
    ASSERT_FALSE(rate.ok());
    EXPECT_EQ(rate.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_TRUE(IntervalDisclosureRate(a, narrow, 0, 5.0).ok());
}

TEST(InformationLossTest, IdentityHasZeroLoss) {
  DataTable data = MakeClinicalTrial(100, 19);
  auto loss = MeasureInformationLoss(data, data);
  ASSERT_TRUE(loss.ok());
  EXPECT_NEAR(loss->il1s, 0.0, 1e-12);
  EXPECT_NEAR(loss->mean_deviation, 0.0, 1e-12);
  EXPECT_NEAR(loss->var_deviation, 0.0, 1e-12);
  EXPECT_NEAR(loss->cov_deviation, 0.0, 1e-12);
  EXPECT_NEAR(loss->corr_deviation, 0.0, 1e-12);
}

TEST(InformationLossTest, LossGrowsWithNoise) {
  DataTable data = MakeClinicalTrial(500, 23);
  auto low = AddUncorrelatedNoise(data, 0.1, {0, 1}, 7);
  auto high = AddUncorrelatedNoise(data, 1.5, {0, 1}, 7);
  ASSERT_TRUE(low.ok() && high.ok());
  auto l_low = MeasureInformationLoss(data, *low);
  auto l_high = MeasureInformationLoss(data, *high);
  ASSERT_TRUE(l_low.ok() && l_high.ok());
  EXPECT_LT(l_low->il1s, l_high->il1s);
  EXPECT_LT(l_low->var_deviation, l_high->var_deviation);
}

TEST(InformationLossTest, LossGrowsWithMicroaggregationK) {
  DataTable data = MakeClinicalTrial(300, 29);
  auto small = MdavMicroaggregate(data, 2);
  auto large = MdavMicroaggregate(data, 30);
  ASSERT_TRUE(small.ok() && large.ok());
  auto l_small = MeasureInformationLoss(data, small->table);
  auto l_large = MeasureInformationLoss(data, large->table);
  ASSERT_TRUE(l_small.ok() && l_large.ok());
  EXPECT_LT(l_small->il1s, l_large->il1s);
}

TEST(InformationLossTest, MicroaggregationPreservesMeans) {
  DataTable data = MakeClinicalTrial(300, 31);
  auto masked = MdavMicroaggregate(data, 10);
  ASSERT_TRUE(masked.ok());
  auto loss = MeasureInformationLoss(data, masked->table);
  ASSERT_TRUE(loss.ok());
  // Centroid replacement leaves column means (nearly) unchanged even though
  // cells move a lot: mean_deviation << il1s.
  EXPECT_LT(loss->mean_deviation, 0.05);
  EXPECT_GT(loss->il1s, loss->mean_deviation);
}

TEST(InformationLossTest, ValidatesArguments) {
  DataTable a = MakeClinicalTrial(10, 1);
  DataTable b = MakeClinicalTrial(9, 1);
  EXPECT_FALSE(MeasureInformationLoss(a, b).ok());
  EXPECT_FALSE(MeasureInformationLoss(a, a, {}).ok());
  DataTable single(PatientSchema());
  ASSERT_TRUE(single.AppendRow({170, 70, 150, "N"}).ok());
  EXPECT_FALSE(MeasureInformationLoss(single, single).ok());
}

}  // namespace
}  // namespace tripriv
