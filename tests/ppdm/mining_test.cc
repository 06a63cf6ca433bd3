// Tests for randomized response, association rules, rule hiding, and the
// sparsity attack.

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "ppdm/association_rules.h"
#include "ppdm/randomized_response.h"
#include "ppdm/rule_hiding.h"
#include "ppdm/sparsity_attack.h"
#include "sdc/noise.h"
#include "table/datasets.h"
#include "util/random.h"

namespace tripriv {
namespace {

TEST(RandomizedResponseTest, EstimatorIsUnbiased) {
  DataTable data = MakeCensus(8000, 3);
  const size_t diag_col = 5;
  auto truth = ObservedDistribution(data, diag_col);
  ASSERT_TRUE(truth.ok());
  auto masked = RandomizedResponseMask(data, diag_col, 0.6, 7);
  ASSERT_TRUE(masked.ok());
  std::vector<std::string> domain;
  for (const auto& [k, v] : *truth) domain.push_back(k);
  auto estimate = EstimateTrueDistribution(*masked, diag_col, 0.6, domain);
  ASSERT_TRUE(estimate.ok());
  for (const auto& [category, p] : *truth) {
    EXPECT_NEAR(estimate->at(category), p, 0.035) << category;
  }
}

TEST(RandomizedResponseTest, MaskingActuallyPerturbs) {
  DataTable data = MakeCensus(1000, 5);
  auto masked = RandomizedResponseMask(data, 5, 0.5, 9);
  ASSERT_TRUE(masked.ok());
  size_t changed = 0;
  for (size_t r = 0; r < data.num_rows(); ++r) {
    if (!(data.at(r, 5) == masked->at(r, 5))) ++changed;
  }
  // ~half the records redrawn, of which ~(1 - marginal) actually change.
  EXPECT_GT(changed, 200u);
  EXPECT_LT(changed, 600u);
}

TEST(RandomizedResponseTest, FullRetentionIsIdentity) {
  DataTable data = MakeCensus(200, 7);
  auto masked = RandomizedResponseMask(data, 5, 1.0, 11);
  ASSERT_TRUE(masked.ok());
  EXPECT_EQ(*masked, data);
}

// A NaN keep probability compares false both ways: past a `p < 0 || p > 1`
// check it aborts the mask in Rng::Bernoulli and turns every estimate into
// NaN. A repeated domain label skews the estimate (N = 0.5 on a column that
// is 86% N), and a column past the table's width aborts in DataTable::at.
TEST(RandomizedResponseTest, RejectsBadInput) {
  DataTable data = MakeCensus(100, 9);
  const double nan = std::nan("");
  auto refused = [](const auto& result) {
    return result.status().code() == StatusCode::kInvalidArgument;
  };
  EXPECT_TRUE(refused(RandomizedResponseMask(data, 0, 0.5, 1)));  // integer
  EXPECT_TRUE(refused(RandomizedResponseMask(data, 5, -0.1, 1)));
  EXPECT_TRUE(refused(RandomizedResponseMask(data, 5, 1.1, 1)));
  EXPECT_TRUE(refused(RandomizedResponseMask(data, 5, nan, 1)));
  EXPECT_TRUE(refused(RandomizedResponseMask(data, 6, 0.5, 1)));  // width
  EXPECT_TRUE(refused(EstimateTrueDistribution(data, 5, 0.0, {"x"})));
  EXPECT_TRUE(refused(EstimateTrueDistribution(data, 5, 0.5, {})));
  EXPECT_TRUE(refused(EstimateTrueDistribution(data, 5, nan, {"N", "Y"})));
  EXPECT_TRUE(refused(EstimateTrueDistribution(data, 5, 1.5, {"N", "Y"})));
  EXPECT_TRUE(refused(EstimateTrueDistribution(data, 5, 0.5, {"N", "N"})));
  EXPECT_TRUE(refused(EstimateTrueDistribution(data, 6, 0.5, {"N", "Y"})));
  EXPECT_TRUE(refused(ObservedDistribution(data, 6)));
  // A domain that leaves out a category the column holds: every estimate
  // would clamp to 0 and skip renormalization ({x: 0}).
  EXPECT_TRUE(refused(EstimateTrueDistribution(data, 5, 0.5, {"x"})));
  // A domain category the column never shows stays legal.
  auto observed = ObservedDistribution(data, 5);
  ASSERT_TRUE(observed.ok());
  std::vector<std::string> wider = {"x"};
  for (const auto& entry : *observed) wider.push_back(entry.first);
  auto estimate = EstimateTrueDistribution(data, 5, 0.5, wider);
  ASSERT_TRUE(estimate.ok());
  EXPECT_EQ(estimate->size(), wider.size());
  EXPECT_EQ(estimate->at("x"), 0.0);
  double total = 0.0;
  for (const auto& entry : *estimate) total += entry.second;
  EXPECT_NEAR(total, 1.0, 1e-12);

  const DataTable trial = MakeClinicalTrial(50, 3);
  EXPECT_TRUE(refused(RandomizedResponseMask(trial, 3, nan, 1)));
  EXPECT_TRUE(refused(EstimateTrueDistribution(trial, 3, nan, {"N", "Y"})));
  EXPECT_TRUE(refused(EstimateTrueDistribution(trial, 3, 0.5, {"N", "N"})));
  EXPECT_TRUE(refused(EstimateTrueDistribution(trial, 4, 0.5, {"N", "Y"})));
}

TEST(AprioriTest, FindsPlantedPatterns) {
  TransactionDb db = MakeTransactions(1000, 50, 3, 13);
  auto frequent = AprioriFrequentItemsets(db, 250);
  ASSERT_TRUE(frequent.ok());
  // Planted patterns appear in ~40% of transactions; some itemset of size
  // >= 2 must be frequent at support 25%.
  bool has_pair = false;
  for (const auto& fi : *frequent) {
    if (fi.items.size() >= 2) has_pair = true;
  }
  EXPECT_TRUE(has_pair);
}

TEST(AprioriTest, SupportCountsAreExact) {
  TransactionDb db = {{1, 2, 3}, {1, 2}, {2, 3}, {1, 3}, {1, 2, 3}};
  EXPECT_EQ(SupportCount(db, {1}), 4u);
  EXPECT_EQ(SupportCount(db, {1, 2}), 3u);
  EXPECT_EQ(SupportCount(db, {1, 2, 3}), 2u);
  EXPECT_EQ(SupportCount(db, {4}), 0u);
  auto frequent = AprioriFrequentItemsets(db, 2);
  ASSERT_TRUE(frequent.ok());
  for (const auto& fi : *frequent) {
    EXPECT_EQ(fi.support, SupportCount(db, fi.items));
    EXPECT_GE(fi.support, 2u);
  }
}

TEST(AprioriTest, MonotonicityHolds) {
  TransactionDb db = MakeTransactions(400, 30, 2, 17);
  auto frequent = AprioriFrequentItemsets(db, 60);
  ASSERT_TRUE(frequent.ok());
  // Every subset of a frequent itemset is frequent (check one level).
  for (const auto& fi : *frequent) {
    if (fi.items.size() < 2) continue;
    for (size_t skip = 0; skip < fi.items.size(); ++skip) {
      std::vector<int> subset;
      for (size_t i = 0; i < fi.items.size(); ++i) {
        if (i != skip) subset.push_back(fi.items[i]);
      }
      EXPECT_GE(SupportCount(db, subset), fi.support);
    }
  }
}

TEST(RuleMiningTest, ConfidenceIsCorrect) {
  TransactionDb db = {{1, 2}, {1, 2}, {1, 2}, {1}, {2}};
  auto rules = MineAssociationRules(db, 2, 0.5);
  ASSERT_TRUE(rules.ok());
  bool found = false;
  for (const auto& rule : *rules) {
    if (rule.antecedent == std::vector<int>{1} &&
        rule.consequent == std::vector<int>{2}) {
      found = true;
      EXPECT_EQ(rule.support, 3u);
      EXPECT_DOUBLE_EQ(rule.confidence, 0.75);  // 3 of 4 transactions with 1
    }
  }
  EXPECT_TRUE(found);
}

TEST(RuleHidingTest, HidesSensitiveRule) {
  TransactionDb db = MakeTransactions(500, 30, 3, 19);
  auto rules = MineAssociationRules(db, 100, 0.6);
  ASSERT_TRUE(rules.ok());
  ASSERT_FALSE(rules->empty());
  const AssociationRule sensitive = (*rules)[0];
  auto hidden = HideAssociationRules(db, {sensitive}, 100, 0.6);
  ASSERT_TRUE(hidden.ok()) << hidden.status().ToString();
  auto after = MineAssociationRules(hidden->sanitized, 100, 0.6);
  ASSERT_TRUE(after.ok());
  for (const auto& rule : *after) {
    EXPECT_FALSE(rule.SameAs(sensitive));
  }
  EXPECT_GT(hidden->modified_transactions, 0u);
}

TEST(RuleHidingTest, SideEffectsAreTracked) {
  TransactionDb db = MakeTransactions(500, 25, 4, 23);
  auto rules = MineAssociationRules(db, 90, 0.55);
  ASSERT_TRUE(rules.ok());
  ASSERT_GE(rules->size(), 2u);
  auto hidden = HideAssociationRules(db, {(*rules)[0]}, 90, 0.55);
  ASSERT_TRUE(hidden.ok());
  // Lost rules (if any) must have been minable before.
  for (const auto& lost : hidden->lost_rules) {
    bool existed = false;
    for (const auto& r : *rules) existed |= r.SameAs(lost);
    EXPECT_TRUE(existed);
  }
}

TEST(RuleHidingTest, UnminableRuleRejected) {
  TransactionDb db = {{1, 2}, {3, 4}};
  AssociationRule ghost;
  ghost.antecedent = {9};
  ghost.consequent = {8};
  auto r = HideAssociationRules(db, {ghost}, 1, 0.5);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(SparsityAttackTest, DisclosureGrowsWithDimension) {
  // The [11] effect: same noise, more attributes => more rare combinations
  // disclosed.
  size_t low_d = 0;
  size_t high_d = 0;
  for (size_t d : {4u, 14u}) {
    DataTable original = MakeHighDimBinary(400, d, 29);
    auto cols = original.schema().QuasiIdentifierIndices();
    // Perturb every QI column with the same absolute noise. Work on a
    // real-typed copy so the noise is not rounded away.
    std::vector<Attribute> attrs = original.schema().attributes();
    for (size_t c : cols) attrs[c].type = AttributeType::kReal;
    DataTable real_masked{Schema(attrs)};
    Rng rng(33);
    for (size_t r = 0; r < original.num_rows(); ++r) {
      std::vector<Value> row = original.row(r);
      for (size_t c : cols) {
        row[c] = Value(original.at(r, c).ToDouble() + rng.Normal(0.0, 0.3));
      }
      ASSERT_TRUE(real_masked.AppendRow(std::move(row)).ok());
    }
    auto result = SparsityAttack(original, real_masked);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (d == 4u) {
      low_d = result->disclosed;
    } else {
      high_d = result->disclosed;
      EXPECT_GT(result->unique_originals, 100u);  // sparse regime
    }
  }
  EXPECT_GT(high_d, low_d);
}

TEST(SparsityAttackTest, ValidatesInput) {
  DataTable a = MakeHighDimBinary(50, 5, 1);
  DataTable b = MakeHighDimBinary(40, 5, 1);
  EXPECT_FALSE(SparsityAttack(a, b).ok());
  DataTable census = MakeCensus(50, 1);  // non-binary QIs
  EXPECT_FALSE(SparsityAttack(census, census).ok());
}

}  // namespace
}  // namespace tripriv
