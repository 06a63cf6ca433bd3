// Tests for RetryPolicy backoff arithmetic, transient classification, and
// the RunRetryLadder loop every served path retries through.

#include "util/retry.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace tripriv {
namespace {

RetryPolicy LadderPolicy(size_t max_attempts) {
  RetryPolicy policy;
  policy.max_attempts = max_attempts;
  policy.initial_backoff_ticks = 1;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_ticks = 64;
  return policy;
}

CircuitBreakerConfig LadderBreakerConfig(size_t failure_threshold) {
  CircuitBreakerConfig config;
  config.failure_threshold = failure_threshold;
  config.open_ticks = 10;
  config.open_jitter_ticks = 0;
  config.half_open_successes = 2;
  return config;
}

TEST(RetryPolicyTest, ExponentialBackoffWithCeiling) {
  RetryPolicy policy;
  policy.initial_backoff_ticks = 2;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_ticks = 16;
  EXPECT_EQ(policy.BackoffTicks(0), 2u);
  EXPECT_EQ(policy.BackoffTicks(1), 4u);
  EXPECT_EQ(policy.BackoffTicks(2), 8u);
  EXPECT_EQ(policy.BackoffTicks(3), 16u);
  EXPECT_EQ(policy.BackoffTicks(4), 16u);   // clamped
  EXPECT_EQ(policy.BackoffTicks(60), 16u);  // no overflow at large attempts
}

TEST(RetryPolicyTest, DegenerateParametersStaySane) {
  RetryPolicy policy;
  policy.initial_backoff_ticks = 0;  // silently raised to 1
  policy.backoff_multiplier = 0.5;   // silently raised to 1 (never shrinks)
  policy.max_backoff_ticks = 0;      // silently raised to 1
  EXPECT_EQ(policy.BackoffTicks(0), 1u);
  EXPECT_EQ(policy.BackoffTicks(7), 1u);
}

TEST(RetryPolicyTest, ConstantBackoffWhenMultiplierIsOne) {
  RetryPolicy policy;
  policy.initial_backoff_ticks = 3;
  policy.backoff_multiplier = 1.0;
  policy.max_backoff_ticks = 100;
  for (size_t attempt = 0; attempt < 10; ++attempt) {
    EXPECT_EQ(policy.BackoffTicks(attempt), 3u);
  }
}

TEST(RetryPolicyTest, HugeCeilingDoesNotOverflowTheCast) {
  // Regression: with max_backoff_ticks near 2^64 the unclamped value
  // initial * multiplier^attempt overflows double-to-uint64 conversion
  // (undefined behaviour) before the old min() could run. The ceiling must
  // win without ever casting an out-of-range double.
  RetryPolicy policy;
  policy.initial_backoff_ticks = 3;
  policy.backoff_multiplier = 10.0;
  policy.max_backoff_ticks = UINT64_MAX;
  EXPECT_EQ(policy.BackoffTicks(0), 3u);
  EXPECT_EQ(policy.BackoffTicks(30), UINT64_MAX);       // 3e31 > 2^64
  EXPECT_EQ(policy.BackoffTicks(100000), UINT64_MAX);   // pow -> inf
}

TEST(RetryPolicyTest, LargeFiniteCeilingIsExact) {
  RetryPolicy policy;
  policy.initial_backoff_ticks = 1;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_ticks = (1ull << 62);
  EXPECT_EQ(policy.BackoffTicks(61), 1ull << 61);
  EXPECT_EQ(policy.BackoffTicks(62), 1ull << 62);
  EXPECT_EQ(policy.BackoffTicks(63), 1ull << 62);  // clamped
  EXPECT_EQ(policy.BackoffTicks(4096), 1ull << 62);
}

TEST(RetryPolicyTest, TruncatedCapsOnlyTheDeadline) {
  // The request Deadline caps the ladder; the policy's own deadline_ticks
  // does not. Attempts and backoff still come from the policy.
  RetryPolicy policy = LadderPolicy(6);
  policy.deadline_ticks = 2;
  size_t runs = 0;
  auto flaky = [&runs](size_t) -> Result<int> {
    ++runs;
    return Status::Unavailable("flaky");
  };

  SimClock clock;
  auto capped = RunRetryLadder<int>(policy, Deadline::After(clock, 6), &clock,
                                    nullptr, "widget", flaky);
  // Attempts at ticks 0, 1 and 3; the 4-tick backoff after the third runs
  // past the deadline at tick 6.
  EXPECT_EQ(capped.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(capped.status().message(),
            "widget after 3 attempt(s): simulated-time budget exhausted");
  EXPECT_EQ(runs, 3u);
  EXPECT_EQ(clock.now(), 7u);

  SimClock unbounded_clock;
  runs = 0;
  auto uncapped = RunRetryLadder<int>(policy, Deadline(), &unbounded_clock,
                                      nullptr, "widget", flaky);
  EXPECT_EQ(uncapped.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(runs, 6u);
  EXPECT_EQ(unbounded_clock.now(), 1u + 2 + 4 + 8 + 16 + 32);
}

TEST(RetryPolicyTest, TransientClassification) {
  EXPECT_TRUE(IsTransient(Status::Unavailable("mailbox empty")));
  EXPECT_TRUE(IsTransient(Status::DeadlineExceeded("budget spent")));
  EXPECT_TRUE(IsTransient(Status::ResourceExhausted("load shed")));
  EXPECT_FALSE(IsTransient(Status::OK()));
  EXPECT_FALSE(IsTransient(Status::InvalidArgument("bad")));
  EXPECT_FALSE(IsTransient(Status::Internal("bug")));
  EXPECT_FALSE(IsTransient(Status::FailedPrecondition("state")));
}

TEST(RetryPolicyTest, DefaultsAreUsableForChaosSweeps) {
  // The defaults must tolerate a 20% drop rate: enough attempts that loss
  // of all transmissions is vanishingly rare, and a deadline larger than
  // the worst-case cumulative backoff of one message.
  RetryPolicy policy;
  EXPECT_GE(policy.max_attempts, 4u);
  uint64_t worst_case = 0;
  for (size_t a = 0; a + 1 < policy.max_attempts; ++a) {
    worst_case += policy.BackoffTicks(a);
  }
  EXPECT_GT(policy.deadline_ticks, worst_case);
}

TEST(RetryLadderTest, ChargesBackoffAfterEveryRetriedAttempt) {
  SimClock clock;
  CircuitBreaker breaker(LadderBreakerConfig(5), &clock);
  std::vector<uint64_t> attempt_ticks;
  auto result = RunRetryLadder<int>(
      LadderPolicy(3), Deadline(), &clock, &breaker, "widget",
      [&](size_t i) -> Result<int> {
        attempt_ticks.push_back(clock.now());
        return Status::Unavailable("flaky " + std::to_string(i));
      });
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(result.status().message(),
            "widget failed after 3 attempt(s); last: flaky 2");
  EXPECT_EQ(attempt_ticks, (std::vector<uint64_t>{0, 1, 3}));
  EXPECT_EQ(clock.now(), 7u);  // 1 + 2 + 4: the last backoff is charged too
  EXPECT_EQ(breaker.consecutive_failures(), 3u);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(RetryLadderTest, RetriesUntilAnAttemptSucceeds) {
  SimClock clock;
  CircuitBreaker breaker(LadderBreakerConfig(5), &clock);
  auto result = RunRetryLadder<int>(
      LadderPolicy(6), Deadline(), &clock, &breaker, "widget",
      [](size_t i) -> Result<int> {
        if (i < 2) return Status::Unavailable("flaky");
        return static_cast<int>(i) * 10;
      });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 20);
  EXPECT_EQ(clock.now(), 3u);                     // backoff after 0 and 1
  EXPECT_EQ(breaker.consecutive_failures(), 0u);  // reset by the success
}

TEST(RetryLadderTest, PermanentOrDeadlineResultEndsWithoutBackoff) {
  const Status endings[] = {Status::InvalidArgument("bad request"),
                            DeadlineExceededError("scan")};
  for (const Status& ending : endings) {
    SimClock clock;
    CircuitBreaker breaker(LadderBreakerConfig(1), &clock);
    ASSERT_TRUE(breaker.AllowRequest());
    breaker.RecordFailure();
    clock.Advance(10);  // the ladder's attempt is the half-open probe
    const uint64_t start = clock.now();
    size_t runs = 0;
    auto result = RunRetryLadder<int>(LadderPolicy(6), Deadline(), &clock,
                                      &breaker, "widget",
                                      [&](size_t) -> Result<int> {
                                        ++runs;
                                        return ending;
                                      });
    EXPECT_EQ(result.status().code(), ending.code());
    EXPECT_EQ(result.status().message(), ending.message());
    EXPECT_EQ(runs, 1u);
    EXPECT_EQ(clock.now(), start);
    // No failure (it would re-open the breaker) and a free probe slot: a
    // permanent error is a backend answer (success), a spent deadline is
    // no verdict at all.
    EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
    EXPECT_EQ(breaker.half_open_successes(),
              ending.code() == StatusCode::kDeadlineExceeded ? 0u : 1u);
    EXPECT_FALSE(breaker.probe_in_flight());
  }
}

TEST(RetryLadderTest, OpenBreakerRefusesWithoutRunningTheAttempt) {
  SimClock clock;
  CircuitBreaker breaker(LadderBreakerConfig(1), &clock);
  ASSERT_TRUE(breaker.AllowRequest());
  breaker.RecordFailure();
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  size_t runs = 0;
  auto result = RunRetryLadder<int>(LadderPolicy(6), Deadline(), &clock,
                                    &breaker, "widget",
                                    [&](size_t) -> Result<int> {
                                      ++runs;
                                      return 1;
                                    });
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(result.status().message(), "widget circuit breaker is open");
  EXPECT_EQ(runs, 0u);
  EXPECT_EQ(clock.now(), 0u);
  EXPECT_EQ(breaker.rejected(), 1u);
}

TEST(RetryLadderTest, ZeroMaxAttemptsRunsOneAttempt) {
  SimClock clock;
  size_t runs = 0;
  auto result = RunRetryLadder<int>(LadderPolicy(0), Deadline(), &clock,
                                    nullptr, "widget",
                                    [&](size_t) -> Result<int> {
                                      ++runs;
                                      return Status::Unavailable("down");
                                    });
  EXPECT_EQ(runs, 1u);
  EXPECT_EQ(result.status().message(),
            "widget failed after 1 attempt(s); last: down");
  EXPECT_EQ(clock.now(), 1u);
}

}  // namespace
}  // namespace tripriv
