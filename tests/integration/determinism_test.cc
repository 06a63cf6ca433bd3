// Reproducibility contract: every randomized component is deterministic in
// its seed (the README claim the experiment harness depends on), and
// different seeds genuinely change the randomness.

#include <gtest/gtest.h>

#include "attack/scoreboard.h"
#include "ppdm/randomized_response.h"
#include "sdc/condensation.h"
#include "sdc/noise.h"
#include "sdc/rank_swap.h"
#include "smc/psi.h"
#include "smc/secure_sum.h"
#include "table/datasets.h"

namespace tripriv {
namespace {

TEST(DeterminismTest, AllMaskersReproduceBitForBit) {
  const DataTable data = MakeExtendedTrial(80, 55);
  const auto qi = data.schema().QuasiIdentifierIndices();
  {
    auto a = AddUncorrelatedNoise(data, 0.4, qi, 9);
    auto b = AddUncorrelatedNoise(data, 0.4, qi, 9);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b);
  }
  {
    auto a = AddCorrelatedNoise(data, 0.4, qi, 9);
    auto b = AddCorrelatedNoise(data, 0.4, qi, 9);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b);
  }
  {
    auto a = RankSwap(data, 10.0, qi, 9);
    auto b = RankSwap(data, 10.0, qi, 9);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b);
  }
  {
    auto a = Condense(data, 5, 9);
    auto b = Condense(data, 5, 9);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->table, b->table);
  }
  {
    auto a = RandomizedResponseMask(data, 5, 0.7, 9);
    auto b = RandomizedResponseMask(data, 5, 0.7, 9);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b);
  }
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  const DataTable data = MakeExtendedTrial(80, 57);
  const auto qi = data.schema().QuasiIdentifierIndices();
  auto a = AddUncorrelatedNoise(data, 0.4, qi, 1);
  auto b = AddUncorrelatedNoise(data, 0.4, qi, 2);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_FALSE(*a == *b);
}

TEST(DeterminismTest, ProtocolsReproduceTranscripts) {
  // Two runs of the same protocol with the same seed produce identical
  // transcripts (and results); the masked values on the wire are pseudo-
  // random, not nondeterministic.
  std::vector<std::vector<uint64_t>> counts{{3, 1}, {4, 1}, {5, 9}};
  PartyNetwork net_a(3, 77);
  PartyNetwork net_b(3, 77);
  auto sum_a = SecureSumCounts(&net_a, counts);
  auto sum_b = SecureSumCounts(&net_b, counts);
  ASSERT_TRUE(sum_a.ok() && sum_b.ok());
  EXPECT_EQ(*sum_a, *sum_b);
  ASSERT_EQ(net_a.transcript().size(), net_b.transcript().size());
  for (size_t i = 0; i < net_a.transcript().size(); ++i) {
    EXPECT_EQ(net_a.transcript()[i].payload, net_b.transcript()[i].payload);
  }

  PartyNetwork psi_a(2, 99);
  PartyNetwork psi_b(2, 99);
  auto r_a = PrivateSetIntersection(&psi_a, {1, 2, 3}, {2, 3, 4}, 96);
  auto r_b = PrivateSetIntersection(&psi_b, {1, 2, 3}, {2, 3, 4}, 96);
  ASSERT_TRUE(r_a.ok() && r_b.ok());
  EXPECT_EQ(r_a->intersection, r_b->intersection);
  EXPECT_EQ(psi_a.bytes_transferred(), psi_b.bytes_transferred());
}

TEST(DeterminismTest, EvaluatorScoresReproduce) {
  attack::EmpiricalTable2Config config = attack::ClinicalTable2Config(21);
  config.selection_trials = 8;
  auto a = attack::RunEmpiricalTable2(MakeExtendedTrial(120, 59), config, {});
  auto b = attack::RunEmpiricalTable2(MakeExtendedTrial(120, 59), config, {});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->RenderText(), b->RenderText());
  EXPECT_EQ(a->RenderJson(), b->RenderJson());
}

}  // namespace
}  // namespace tripriv
