// Tests for descriptive statistics, histograms, and linear algebra.

#include <cmath>

#include <gtest/gtest.h>

#include "stats/descriptive.h"
#include "stats/histogram.h"
#include "stats/linalg.h"
#include "util/random.h"

namespace tripriv {
namespace {

TEST(DescriptiveTest, MeanVarianceKnownValues) {
  std::vector<double> v{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(v), 5.0);
  EXPECT_DOUBLE_EQ(PopulationVariance(v), 4.0);
  EXPECT_NEAR(SampleVariance(v), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(SampleStddev(v), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(DescriptiveTest, CovarianceAndCorrelation) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y{2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  std::vector<double> z{10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, z), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(SampleCovariance(x, y), 5.0);
  // Constant vector: correlation defined as 0.
  std::vector<double> c{3, 3, 3, 3, 3};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, c), 0.0);
}

TEST(DescriptiveTest, QuantilesAndMedian) {
  std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Median(v), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(Median({7.0}), 7.0);
}

TEST(DescriptiveTest, MinMax) {
  std::vector<double> v{3, -1, 7, 0};
  EXPECT_DOUBLE_EQ(Min(v), -1.0);
  EXPECT_DOUBLE_EQ(Max(v), 7.0);
}

TEST(DescriptiveTest, MatrixStats) {
  std::vector<std::vector<double>> m{{1, 10}, {2, 20}, {3, 30}};
  EXPECT_EQ(ColumnMeans(m), (std::vector<double>{2, 20}));
  auto cov = CovarianceMatrix(m);
  EXPECT_DOUBLE_EQ(cov[0][0], 1.0);
  EXPECT_DOUBLE_EQ(cov[1][1], 100.0);
  EXPECT_DOUBLE_EQ(cov[0][1], 10.0);
  EXPECT_DOUBLE_EQ(cov[0][1], cov[1][0]);
  auto corr = CorrelationMatrix(m);
  EXPECT_NEAR(corr[0][1], 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(corr[0][0], 1.0);
}

TEST(DescriptiveTest, Distances) {
  EXPECT_DOUBLE_EQ(SquaredDistance({0, 0}, {3, 4}), 25.0);
  std::vector<std::vector<double>> a{{1, 2}, {3, 4}};
  std::vector<std::vector<double>> b{{1, 2}, {3, 6}};
  EXPECT_DOUBLE_EQ(MatrixSse(a, b), 4.0);
}

TEST(HistogramTest, BinAssignmentAndClamping) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_EQ(h.BinIndex(0.0), 0u);
  EXPECT_EQ(h.BinIndex(1.99), 0u);
  EXPECT_EQ(h.BinIndex(2.0), 1u);
  EXPECT_EQ(h.BinIndex(9.99), 4u);
  EXPECT_EQ(h.BinIndex(10.0), 4u);   // clamped
  EXPECT_EQ(h.BinIndex(-5.0), 0u);   // clamped
  EXPECT_EQ(h.BinIndex(100.0), 4u);  // clamped
  EXPECT_DOUBLE_EQ(h.BinCenter(0), 1.0);
  EXPECT_DOUBLE_EQ(h.BinCenter(4), 9.0);
}

TEST(HistogramTest, ProbabilitiesSumToOne) {
  Rng rng(3);
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) values.push_back(rng.Normal(5, 2));
  Histogram h = Histogram::FromValues(values, -5, 15, 40);
  auto p = h.Probabilities();
  double sum = 0;
  for (double v : p) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_NEAR(h.ApproxMean(), 5.0, 0.3);
  EXPECT_DOUBLE_EQ(h.total(), 1000.0);
}

TEST(HistogramTest, EmptyHistogramUniformProbabilities) {
  Histogram h(0, 1, 4);
  auto p = h.Probabilities();
  for (double v : p) EXPECT_DOUBLE_EQ(v, 0.25);
}

TEST(DistanceTest, TotalVariation) {
  EXPECT_DOUBLE_EQ(TotalVariation({1, 0}, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(TotalVariation({0.5, 0.5}, {0.5, 0.5}), 0.0);
  EXPECT_DOUBLE_EQ(TotalVariation({0.75, 0.25}, {0.25, 0.75}), 0.5);
}

TEST(DistanceTest, KsStatistic) {
  std::vector<double> a{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(KsStatistic(a, a), 0.0);
  std::vector<double> b{101, 102, 103};
  EXPECT_DOUBLE_EQ(KsStatistic(a, b), 1.0);  // disjoint supports
  Rng rng(5);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 4000; ++i) {
    x.push_back(rng.Normal(0, 1));
    y.push_back(rng.Normal(0, 1));
  }
  EXPECT_LT(KsStatistic(x, y), 0.05);  // same distribution
}

TEST(DistanceTest, ChiSquare) {
  EXPECT_DOUBLE_EQ(ChiSquareStatistic({10, 10}, {10, 10}), 0.0);
  EXPECT_DOUBLE_EQ(ChiSquareStatistic({12, 8}, {10, 10}), 0.8);
  // Zero expected bins are skipped rather than dividing by zero.
  EXPECT_DOUBLE_EQ(ChiSquareStatistic({5, 5}, {0, 10}), 2.5);
}

TEST(DistanceTest, Hellinger) {
  EXPECT_DOUBLE_EQ(HellingerDistance({1, 0}, {1, 0}), 0.0);
  EXPECT_NEAR(HellingerDistance({1, 0}, {0, 1}), 1.0, 1e-12);
  EXPECT_GT(HellingerDistance({0.6, 0.4}, {0.4, 0.6}), 0.0);
}

TEST(LinalgTest, CholeskyReconstructs) {
  std::vector<std::vector<double>> a{{4, 2}, {2, 3}};
  auto l = CholeskyDecompose(a);
  ASSERT_TRUE(l.ok());
  // L L^T == A
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      double s = 0;
      for (size_t k = 0; k < 2; ++k) s += (*l)[i][k] * (*l)[j][k];
      EXPECT_NEAR(s, a[i][j], 1e-12);
    }
  }
  EXPECT_DOUBLE_EQ((*l)[0][1], 0.0);  // lower triangular
}

TEST(LinalgTest, CholeskySemidefiniteGetsJitter) {
  // Rank-1 matrix (semidefinite): jitter should rescue it.
  std::vector<std::vector<double>> a{{1, 1}, {1, 1}};
  EXPECT_TRUE(CholeskyDecompose(a).ok());
}

TEST(LinalgTest, CholeskyRejectsIndefinite) {
  std::vector<std::vector<double>> a{{1, 2}, {2, 1}};  // eigenvalues 3, -1
  EXPECT_FALSE(CholeskyDecompose(a).ok());
  std::vector<std::vector<double>> ragged{{1, 2}};
  EXPECT_FALSE(CholeskyDecompose(ragged).ok());
}

TEST(LinalgTest, MultivariateNormalMatchesMoments) {
  std::vector<std::vector<double>> cov{{2.0, 0.8}, {0.8, 1.0}};
  auto l = CholeskyDecompose(cov);
  ASSERT_TRUE(l.ok());
  Rng rng(11);
  std::vector<std::vector<double>> samples;
  for (int i = 0; i < 20000; ++i) {
    samples.push_back(MultivariateNormalSample({5.0, -3.0}, *l, &rng));
  }
  const auto means = ColumnMeans(samples);
  EXPECT_NEAR(means[0], 5.0, 0.05);
  EXPECT_NEAR(means[1], -3.0, 0.05);
  const auto est = CovarianceMatrix(samples);
  EXPECT_NEAR(est[0][0], 2.0, 0.1);
  EXPECT_NEAR(est[0][1], 0.8, 0.05);
  EXPECT_NEAR(est[1][1], 1.0, 0.05);
}

TEST(LinalgTest, FrobeniusNorm) {
  std::vector<std::vector<double>> m{{1, 2}, {3, 4}};
  EXPECT_NEAR(FrobeniusNorm(m), std::sqrt(30.0), 1e-12);
}

}  // namespace
}  // namespace tripriv
