// Tests for the three-state circuit breaker: trip on consecutive failures,
// timed reopen with seeded jitter, half-open probing (including an abandoned
// probe), and determinism.

#include "util/circuit_breaker.h"

#include <gtest/gtest.h>

namespace tripriv {
namespace {

CircuitBreakerConfig TestConfig() {
  CircuitBreakerConfig config;
  config.failure_threshold = 3;
  config.open_ticks = 10;
  config.open_jitter_ticks = 0;  // exact timing for the state tests
  config.half_open_successes = 2;
  return config;
}

TEST(CircuitBreakerTest, StaysClosedUnderScatteredFailures) {
  SimClock clock;
  CircuitBreaker breaker(TestConfig(), &clock);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(breaker.AllowRequest());
    breaker.RecordFailure();
    ASSERT_TRUE(breaker.AllowRequest());
    breaker.RecordSuccess();  // resets the consecutive count
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.times_opened(), 0u);
}

TEST(CircuitBreakerTest, TripsAfterConsecutiveFailuresAndRejects) {
  SimClock clock;
  CircuitBreaker breaker(TestConfig(), &clock);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(breaker.consecutive_failures(), static_cast<size_t>(i));
    ASSERT_TRUE(breaker.AllowRequest());
    breaker.RecordFailure();
  }
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.times_opened(), 1u);
  EXPECT_EQ(breaker.consecutive_failures(), 0u);  // reset by the trip
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_EQ(breaker.rejected(), 2u);
}

TEST(CircuitBreakerTest, HalfOpenProbeClosesAfterEnoughSuccesses) {
  SimClock clock;
  CircuitBreaker breaker(TestConfig(), &clock);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.AllowRequest());
    breaker.RecordFailure();
  }
  EXPECT_EQ(breaker.half_open_probes(), 0u);
  clock.Advance(10);  // reopen tick reached
  ASSERT_TRUE(breaker.AllowRequest());  // probe 1
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.probe_in_flight());
  EXPECT_FALSE(breaker.AllowRequest());  // probe slot busy
  breaker.RecordSuccess();
  EXPECT_FALSE(breaker.probe_in_flight());
  EXPECT_EQ(breaker.half_open_successes(), 1u);
  ASSERT_TRUE(breaker.AllowRequest());  // probe 2
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.half_open_probes(), 2u);
  EXPECT_EQ(breaker.half_open_successes(), 0u);  // reset on close
}

TEST(CircuitBreakerTest, HalfOpenProbeFailureReopens) {
  SimClock clock;
  CircuitBreaker breaker(TestConfig(), &clock);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.AllowRequest());
    breaker.RecordFailure();
  }
  clock.Advance(10);
  ASSERT_TRUE(breaker.AllowRequest());
  breaker.RecordFailure();  // backend still sick
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.times_opened(), 2u);
  EXPECT_FALSE(breaker.probe_in_flight());  // cleared by the re-trip
  EXPECT_FALSE(breaker.AllowRequest());     // a fresh open period started
  clock.Advance(10);
  EXPECT_TRUE(breaker.AllowRequest());
  EXPECT_EQ(breaker.half_open_probes(), 2u);  // one probe per episode
}

TEST(CircuitBreakerTest, AbandonedProbeFreesTheSlot) {
  SimClock clock;
  CircuitBreaker breaker(TestConfig(), &clock);
  // Closed: nothing to free, and the failure count stands.
  ASSERT_TRUE(breaker.AllowRequest());
  breaker.RecordFailure();
  breaker.RecordAbandoned();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 1u);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(breaker.AllowRequest());
    breaker.RecordFailure();
  }
  // Open: the timer stands.
  breaker.RecordAbandoned();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.AllowRequest());

  clock.Advance(10);
  ASSERT_TRUE(breaker.AllowRequest());  // probe 1
  breaker.RecordSuccess();
  ASSERT_TRUE(breaker.AllowRequest());  // probe 2, abandoned below
  EXPECT_FALSE(breaker.AllowRequest());  // slot busy
  const size_t rejected = breaker.rejected();
  breaker.RecordAbandoned();
  EXPECT_FALSE(breaker.probe_in_flight());
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_EQ(breaker.half_open_successes(), 1u);  // no verdict either way
  EXPECT_EQ(breaker.consecutive_failures(), 0u);
  EXPECT_EQ(breaker.times_opened(), 1u);
  ASSERT_TRUE(breaker.AllowRequest());  // probe 3 gets the freed slot
  EXPECT_EQ(breaker.rejected(), rejected);
  EXPECT_EQ(breaker.half_open_probes(), 3u);
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, JitterIsSeedDeterministicAndBounded) {
  auto reopen_delay = [](uint64_t seed) {
    SimClock clock;
    CircuitBreakerConfig config = TestConfig();
    config.open_jitter_ticks = 6;
    config.seed = seed;
    CircuitBreaker breaker(config, &clock);
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(breaker.AllowRequest());
      breaker.RecordFailure();
    }
    uint64_t delay = 0;
    while (!breaker.AllowRequest() && delay < 1000) {
      clock.Advance(1);
      ++delay;
    }
    return delay;
  };
  const uint64_t d1 = reopen_delay(42);
  EXPECT_EQ(d1, reopen_delay(42));  // deterministic per seed
  EXPECT_GE(d1, 10u);               // never before open_ticks
  EXPECT_LE(d1, 16u);               // never past open_ticks + jitter
  // Some seed disagrees with seed 42 within the jitter window.
  bool found_different = false;
  for (uint64_t seed = 0; seed < 16 && !found_different; ++seed) {
    found_different = reopen_delay(seed) != d1;
  }
  EXPECT_TRUE(found_different);
}

TEST(CircuitBreakerTest, StragglerSuccessWhileOpenDoesNotClose) {
  SimClock clock;
  CircuitBreaker breaker(TestConfig(), &clock);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.AllowRequest());
    breaker.RecordFailure();
  }
  breaker.RecordSuccess();  // late reply from before the trip
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.AllowRequest());
}

TEST(CircuitBreakerTest, StateNamesAreStable) {
  EXPECT_STREQ(BreakerStateToString(BreakerState::kClosed), "closed");
  EXPECT_STREQ(BreakerStateToString(BreakerState::kOpen), "open");
  EXPECT_STREQ(BreakerStateToString(BreakerState::kHalfOpen), "half-open");
}

}  // namespace
}  // namespace tripriv
