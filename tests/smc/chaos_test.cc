// Chaos sweeps: every SMC protocol under deterministic fault injection.
//
// The contract (ISSUE: robustness): with a fixed seed and any drop rate
// <= 0.2, a protocol run either returns exactly the fault-free result or a
// typed transient error (kUnavailable / kDeadlineExceeded) — never a wrong
// answer, a hang, or a CHECK-abort. Shamir reconstruction must succeed
// whenever >= t shares survive. Run on its own with `ctest -L chaos`.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "smc/distributed_id3.h"
#include "smc/psi.h"
#include "smc/reliable_channel.h"
#include "smc/scalar_product.h"
#include "smc/secure_sum.h"
#include "smc/shamir.h"
#include "smc/vertical.h"
#include "table/datasets.h"

namespace tripriv {
namespace {

struct ChaosParam {
  double drop_rate;
  uint64_t fault_seed;
};

void PrintTo(const ChaosParam& p, std::ostream* os) {
  *os << "drop" << static_cast<int>(p.drop_rate * 100) << "pct_seed"
      << p.fault_seed;
}

FaultPlan DropPlan(const ChaosParam& p) {
  FaultPlan plan;
  plan.drop_rate = p.drop_rate;
  plan.seed = p.fault_seed;
  return plan;
}

/// Asserts the chaos contract on a faulty result given the fault-free one.
template <typename T>
void ExpectEqualOrTransient(const Result<T>& faulty, const T& reference,
                            const char* what) {
  if (faulty.ok()) {
    EXPECT_EQ(*faulty, reference) << what << ": wrong result under faults";
  } else {
    EXPECT_TRUE(IsTransient(faulty.status()))
        << what << ": non-transient failure " << faulty.status().ToString();
  }
}

class ChaosSweepTest : public ::testing::TestWithParam<ChaosParam> {};

INSTANTIATE_TEST_SUITE_P(
    DropRates, ChaosSweepTest,
    ::testing::Values(ChaosParam{0.0, 1}, ChaosParam{0.0, 2},
                      ChaosParam{0.05, 1}, ChaosParam{0.05, 2},
                      ChaosParam{0.2, 1}, ChaosParam{0.2, 2},
                      ChaosParam{0.2, 3}),
    ::testing::PrintToStringParamName());

TEST_P(ChaosSweepTest, SecureSum) {
  const std::vector<BigInt> inputs{BigInt(111), BigInt(222), BigInt(333)};
  const BigInt modulus = BigInt(1) << 40;

  PartyNetwork reference_net(3, 42);
  auto reference = SecureSum(&reference_net, inputs, modulus);
  ASSERT_TRUE(reference.ok());

  PartyNetwork net(3, 42);
  net.InjectFaults(DropPlan(GetParam()));
  ExpectEqualOrTransient(SecureSum(&net, inputs, modulus), *reference,
                         "secure sum");
}

TEST_P(ChaosSweepTest, SecureSumVector) {
  const std::vector<std::vector<BigInt>> inputs{
      {BigInt(900), BigInt(1)}, {BigInt(900), BigInt(2)},
      {BigInt(900), BigInt(3)}, {BigInt(17), BigInt(4)}};
  const BigInt modulus(1000);

  PartyNetwork reference_net(4, 9);
  auto reference = SecureSumVector(&reference_net, inputs, modulus);
  ASSERT_TRUE(reference.ok());

  PartyNetwork net(4, 9);
  net.InjectFaults(DropPlan(GetParam()));
  ExpectEqualOrTransient(SecureSumVector(&net, inputs, modulus), *reference,
                         "secure sum vector");
}

TEST_P(ChaosSweepTest, ScalarProduct) {
  std::vector<BigInt> a{BigInt(3), BigInt(0), BigInt(7), BigInt(2)};
  std::vector<BigInt> b{BigInt(5), BigInt(4), BigInt(1), BigInt(6)};

  PartyNetwork reference_net(2, 7);
  auto reference = SecureScalarProduct(&reference_net, a, b, 256);
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(*reference, BigInt(3 * 5 + 7 * 1 + 2 * 6));

  PartyNetwork net(2, 7);
  net.InjectFaults(DropPlan(GetParam()));
  ExpectEqualOrTransient(SecureScalarProduct(&net, a, b, 256), *reference,
                         "scalar product");
}

TEST_P(ChaosSweepTest, PrivateSetIntersection) {
  const std::vector<int64_t> set_a{1, 5, 9, 42, 100};
  const std::vector<int64_t> set_b{2, 5, 42, 77};

  PartyNetwork reference_net(2, 13);
  auto reference = PrivateSetIntersection(&reference_net, set_a, set_b, 96);
  ASSERT_TRUE(reference.ok());

  PartyNetwork net(2, 13);
  net.InjectFaults(DropPlan(GetParam()));
  auto faulty = PrivateSetIntersection(&net, set_a, set_b, 96);
  if (faulty.ok()) {
    EXPECT_EQ(faulty->intersection, reference->intersection);
  } else {
    EXPECT_TRUE(IsTransient(faulty.status())) << faulty.status().ToString();
  }
}

TEST_P(ChaosSweepTest, ShamirReconstructOverNetwork) {
  const BigInt prime = BigInt::FromString("2305843009213693951").value();
  const BigInt secret(987654321);
  Rng share_rng(3);
  auto shares = ShamirShareSecret(secret, 5, 3, prime, &share_rng);
  ASSERT_TRUE(shares.ok());

  PartyNetwork net(5, 4);
  net.InjectFaults(DropPlan(GetParam()));
  ExpectEqualOrTransient(ShamirReconstructOverNetwork(&net, *shares, 3, prime),
                         secret, "shamir reconstruction");
}

TEST_P(ChaosSweepTest, DistributedId3) {
  DataTable train = MakeClassification(120, 2, 11);
  std::vector<DataTable> partitions;
  for (size_t p = 0; p < 2; ++p) {
    std::vector<size_t> rows;
    for (size_t r = p; r < train.num_rows(); r += 2) rows.push_back(r);
    partitions.push_back(train.SelectRows(rows));
  }
  DistributedId3Config config;
  config.max_depth = 3;

  PartyNetwork reference_net(2, 13);
  auto reference =
      DistributedId3Tree::Train(partitions, "group", config, &reference_net);
  ASSERT_TRUE(reference.ok());
  auto reference_acc = reference->Accuracy(train);
  ASSERT_TRUE(reference_acc.ok());

  PartyNetwork net(2, 13);
  net.InjectFaults(DropPlan(GetParam()));
  auto faulty = DistributedId3Tree::Train(partitions, "group", config, &net);
  if (faulty.ok()) {
    // Count aggregation is deterministic, so the faulty-run tree must be
    // the fault-free tree (same size, same predictions).
    EXPECT_EQ(faulty->num_nodes(), reference->num_nodes());
    auto faulty_acc = faulty->Accuracy(train);
    ASSERT_TRUE(faulty_acc.ok());
    EXPECT_EQ(*faulty_acc, *reference_acc);
  } else {
    EXPECT_TRUE(IsTransient(faulty.status())) << faulty.status().ToString();
  }
}

TEST_P(ChaosSweepTest, SecureJointMoments) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0, 5.0, 6.5};
  const std::vector<double> y{2.1, 3.9, 6.2, 8.0, 9.8, 13.1};

  PartyNetwork reference_net(2, 23);
  auto reference = SecureJointMoments(&reference_net, x, y, 100, 256);
  ASSERT_TRUE(reference.ok());

  PartyNetwork net(2, 23);
  net.InjectFaults(DropPlan(GetParam()));
  auto faulty = SecureJointMoments(&net, x, y, 100, 256);
  if (faulty.ok()) {
    EXPECT_EQ(faulty->covariance, reference->covariance);
    EXPECT_EQ(faulty->correlation, reference->correlation);
  } else {
    EXPECT_TRUE(IsTransient(faulty.status())) << faulty.status().ToString();
  }
}

// ---------------------------------------------------------------------------
// Mixed adversity: drops, duplicates, reordering, corruption, and latency at
// once. The reliable channel must still deliver exactly or fail typed.

FaultPlan MixedPlan(uint64_t seed) {
  FaultPlan plan;
  plan.drop_rate = 0.1;
  plan.duplicate_rate = 0.1;
  plan.reorder_rate = 0.2;
  plan.corrupt_rate = 0.1;
  plan.max_latency_ticks = 3;
  plan.seed = seed;
  return plan;
}

TEST(ChaosMixedTest, SecureSumUnderAllFaultTypes) {
  const std::vector<BigInt> inputs{BigInt(10), BigInt(20), BigInt(30),
                                   BigInt(40)};
  const BigInt modulus = BigInt(1) << 32;
  PartyNetwork reference_net(4, 5);
  auto reference = SecureSum(&reference_net, inputs, modulus);
  ASSERT_TRUE(reference.ok());
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    PartyNetwork net(4, 5);
    net.InjectFaults(MixedPlan(seed));
    ExpectEqualOrTransient(SecureSum(&net, inputs, modulus), *reference,
                           "secure sum (mixed faults)");
  }
}

TEST(ChaosMixedTest, PsiUnderAllFaultTypes) {
  const std::vector<int64_t> set_a{11, 22, 33, 44};
  const std::vector<int64_t> set_b{22, 44, 55};
  PartyNetwork reference_net(2, 17);
  auto reference = PrivateSetIntersection(&reference_net, set_a, set_b, 96);
  ASSERT_TRUE(reference.ok());
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    PartyNetwork net(2, 17);
    net.InjectFaults(MixedPlan(seed));
    auto faulty = PrivateSetIntersection(&net, set_a, set_b, 96);
    if (faulty.ok()) {
      EXPECT_EQ(faulty->intersection, reference->intersection);
    } else {
      EXPECT_TRUE(IsTransient(faulty.status())) << faulty.status().ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// Crash degradation: a dead party yields a typed transient error from the
// aggregation protocols, and Shamir reconstruction shrugs off up to n - t
// losses.

TEST(ChaosCrashTest, SecureSumDetectsCrashedParty) {
  const std::vector<BigInt> inputs{BigInt(1), BigInt(2), BigInt(3), BigInt(4)};
  FaultPlan plan;
  plan.crash_party = 2;
  plan.crash_at_step = 3;
  PartyNetwork net(4, 42);
  RetryPolicy policy;
  policy.deadline_ticks = 64;  // keep the simulated wait short
  net.set_retry_policy(policy);
  net.InjectFaults(plan);
  auto result = SecureSum(&net, inputs, BigInt(1) << 32);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable)
      << result.status().ToString();
}

TEST(ChaosCrashTest, ScalarProductDetectsCrashedParty) {
  std::vector<BigInt> a{BigInt(3), BigInt(7)};
  std::vector<BigInt> b{BigInt(5), BigInt(1)};
  FaultPlan plan;
  plan.crash_party = 1;
  plan.crash_at_step = 2;
  PartyNetwork net(2, 7);
  RetryPolicy policy;
  policy.deadline_ticks = 64;
  net.set_retry_policy(policy);
  net.InjectFaults(plan);
  auto result = SecureScalarProduct(&net, a, b, 256);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(IsTransient(result.status())) << result.status().ToString();
}

TEST(ChaosCrashTest, DistributedId3DetectsCrashedParty) {
  DataTable train = MakeClassification(60, 2, 11);
  std::vector<DataTable> partitions;
  for (size_t p = 0; p < 2; ++p) {
    std::vector<size_t> rows;
    for (size_t r = p; r < train.num_rows(); r += 2) rows.push_back(r);
    partitions.push_back(train.SelectRows(rows));
  }
  DistributedId3Config config;
  config.max_depth = 2;
  FaultPlan plan;
  plan.crash_party = 1;
  plan.crash_at_step = 5;
  PartyNetwork net(2, 13);
  RetryPolicy policy;
  policy.deadline_ticks = 64;
  net.set_retry_policy(policy);
  net.InjectFaults(plan);
  auto result = DistributedId3Tree::Train(partitions, "group", config, &net);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(IsTransient(result.status())) << result.status().ToString();
}

TEST(ChaosCrashTest, ShamirSurvivesUpToNMinusTCrashes) {
  const BigInt prime(10007);
  const BigInt secret(4242);
  Rng share_rng(7);
  auto shares = ShamirShareSecret(secret, 5, 3, prime, &share_rng);
  ASSERT_TRUE(shares.ok());

  // One party dead: 4 of 5 shares arrive, threshold 3 — reconstructs.
  FaultPlan plan;
  plan.crash_party = 3;
  plan.crash_at_step = 1;
  PartyNetwork net(5, 4);
  RetryPolicy policy;
  policy.deadline_ticks = 64;
  net.set_retry_policy(policy);
  net.InjectFaults(plan);
  auto secret_back = ShamirReconstructOverNetwork(&net, *shares, 3, prime);
  ASSERT_TRUE(secret_back.ok()) << secret_back.status().ToString();
  EXPECT_EQ(*secret_back, secret);
}

TEST(ChaosCrashTest, ShamirFailsTypedBelowThreshold) {
  const BigInt prime(10007);
  const BigInt secret(4242);
  Rng share_rng(7);
  auto shares = ShamirShareSecret(secret, 5, 3, prime, &share_rng);
  ASSERT_TRUE(shares.ok());

  // Every inter-party message lost: only the collector's own share remains,
  // below threshold 3 — a typed kUnavailable, not a wrong secret or a hang.
  FaultPlan plan;
  plan.drop_rate = 1.0;
  PartyNetwork net(5, 4);
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.deadline_ticks = 32;
  net.set_retry_policy(policy);
  net.InjectFaults(plan);
  auto result = ShamirReconstructOverNetwork(&net, *shares, 3, prime);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable)
      << result.status().ToString();
}

// ---------------------------------------------------------------------------
// Owner-privacy accounting under faults: retransmissions must never put
// anything on the wire beyond what the fault-free transcript already shows.

TEST(ChaosLeakTest, RetransmissionsLeakNothingBeyondFaultFreeTranscript) {
  const std::vector<BigInt> inputs{BigInt(111), BigInt(222), BigInt(333)};
  const BigInt modulus = BigInt(1) << 64;

  PartyNetwork reference_net(3, 42);
  auto reference = SecureSum(&reference_net, inputs, modulus);
  ASSERT_TRUE(reference.ok());
  std::set<std::string> reference_payloads;
  for (const auto& msg : reference_net.transcript()) {
    std::string key = msg.tag;
    for (const BigInt& v : msg.payload) key += ',' + v.ToHex();
    reference_payloads.insert(std::move(key));
  }

  FaultPlan plan;
  plan.drop_rate = 0.15;
  plan.duplicate_rate = 0.1;
  plan.seed = 6;
  PartyNetwork net(3, 42);
  net.InjectFaults(plan);
  auto faulty = SecureSum(&net, inputs, modulus);
  ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();
  ASSERT_EQ(*faulty, *reference);
  ASSERT_GT(net.fault_log().size(), 0u);

  // Strip acks and reliability headers; every remaining unique payload must
  // already exist in the fault-free transcript.
  for (const auto& msg : net.transcript()) {
    if (IsReliableControlMessage(msg)) continue;
    ASSERT_GE(msg.payload.size(), kReliableHeaderElems);
    std::string key = msg.tag;
    for (size_t i = kReliableHeaderElems; i < msg.payload.size(); ++i) {
      key += ',' + msg.payload[i].ToHex();
    }
    EXPECT_TRUE(reference_payloads.count(key))
        << "fault-injected run leaked a novel payload in " << msg.tag;
  }
}

TEST(ChaosLeakTest, EvaluatorCryptoScoresUnchangedByRetransmissions) {
  // The scoreboard's crypto-PPDM deployment: three owners hold horizontal
  // shards of the 120-row trial and secure-sum their per-column totals
  // (SecureSumCounts, the vector sum the transcript scan reads). Under 10%
  // drops the reliable channel retransmits; once acks and headers are
  // stripped, every payload must already be in the fault-free transcript,
  // so the scan measures no more leakage than without faults.
  const DataTable trial = MakeExtendedTrial(120, 11);
  constexpr size_t kParties = 3;
  std::vector<size_t> numeric;
  for (size_t c = 0; c < trial.num_columns(); ++c) {
    if (trial.schema().attribute(c).type != AttributeType::kCategorical) {
      numeric.push_back(c);
    }
  }
  std::vector<std::vector<uint64_t>> local(
      kParties, std::vector<uint64_t>(numeric.size() + 1, 0));
  for (size_t r = 0; r < trial.num_rows(); ++r) {
    std::vector<uint64_t>& sums = local[r % kParties];
    sums[0] += 1;
    for (size_t j = 0; j < numeric.size(); ++j) {
      const int64_t cell = std::llround(trial.at(r, numeric[j]).ToDouble());
      sums[j + 1] += static_cast<uint64_t>(std::max<int64_t>(0, cell));
    }
  }

  PartyNetwork reference_net(kParties, 7);
  auto reference = SecureSumCounts(&reference_net, local);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  std::set<std::string> reference_payloads;
  for (const auto& msg : reference_net.transcript()) {
    std::string key = msg.tag;
    for (const BigInt& v : msg.payload) key += ',' + v.ToHex();
    reference_payloads.insert(std::move(key));
  }

  FaultPlan plan;
  plan.drop_rate = 0.1;
  PartyNetwork net(kParties, 7);
  net.InjectFaults(plan);
  auto faulty = SecureSumCounts(&net, local);
  ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();
  ASSERT_EQ(*faulty, *reference);
  ASSERT_GT(net.fault_log().size(), 0u);

  for (const auto& msg : net.transcript()) {
    if (IsReliableControlMessage(msg)) continue;
    ASSERT_GE(msg.payload.size(), kReliableHeaderElems);
    std::string key = msg.tag;
    for (size_t i = kReliableHeaderElems; i < msg.payload.size(); ++i) {
      key += ',' + msg.payload[i].ToHex();
    }
    EXPECT_TRUE(reference_payloads.count(key))
        << "fault-injected run leaked a novel payload in " << msg.tag;
  }
}

}  // namespace
}  // namespace tripriv
