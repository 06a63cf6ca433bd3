// Tests for SimClock and Deadline: logical-time arithmetic, expiry,
// saturation, and propagation into RunRetryLadder.

#include "util/clock.h"

#include <gtest/gtest.h>

#include "util/retry.h"

namespace tripriv {
namespace {

TEST(SimClockTest, StartsAtZeroAndOnlyMovesWhenCharged) {
  SimClock clock;
  EXPECT_EQ(clock.now(), 0u);
  clock.Advance(0);
  EXPECT_EQ(clock.now(), 0u);
  clock.Advance(7);
  clock.Advance(3);
  EXPECT_EQ(clock.now(), 10u);
}

TEST(DeadlineTest, DefaultIsInfinite) {
  SimClock clock;
  Deadline deadline;
  EXPECT_TRUE(deadline.infinite());
  clock.Advance(UINT64_MAX / 2);
  EXPECT_FALSE(deadline.expired(clock));
  EXPECT_EQ(deadline.remaining_ticks(clock), Deadline::kInfinite);
}

TEST(DeadlineTest, ExpiresExactlyAtItsTick) {
  SimClock clock;
  Deadline deadline = Deadline::After(clock, 5);
  EXPECT_FALSE(deadline.expired(clock));
  EXPECT_EQ(deadline.remaining_ticks(clock), 5u);
  clock.Advance(4);
  EXPECT_FALSE(deadline.expired(clock));
  EXPECT_EQ(deadline.remaining_ticks(clock), 1u);
  clock.Advance(1);
  EXPECT_TRUE(deadline.expired(clock));
  EXPECT_EQ(deadline.remaining_ticks(clock), 0u);
  clock.Advance(100);
  EXPECT_TRUE(deadline.expired(clock));
  EXPECT_EQ(deadline.remaining_ticks(clock), 0u);
}

TEST(DeadlineTest, ZeroTickDeadlineIsBornExpired) {
  SimClock clock;
  clock.Advance(42);
  Deadline deadline = Deadline::After(clock, 0);
  EXPECT_TRUE(deadline.expired(clock));
}

TEST(DeadlineTest, AfterSaturatesInsteadOfWrapping) {
  SimClock clock;
  clock.Advance(100);
  Deadline deadline = Deadline::After(clock, UINT64_MAX - 10);
  EXPECT_TRUE(deadline.infinite());
  EXPECT_FALSE(deadline.expired(clock));
}

TEST(DeadlineTest, AtTickPinsAnAbsolutePoint) {
  SimClock clock;
  Deadline deadline = Deadline::AtTick(3);
  EXPECT_EQ(deadline.tick(), 3u);
  clock.Advance(2);
  EXPECT_FALSE(deadline.expired(clock));
  clock.Advance(1);
  EXPECT_TRUE(deadline.expired(clock));
}

TEST(DeadlineTest, PropagatesIntoRetryPolicyViaTruncated) {
  // The intended composition: an enclosing request deadline bounds the
  // nested retry ladder instead of letting the policy widen the request's.
  SimClock clock;
  Deadline deadline = Deadline::After(clock, 20);
  clock.Advance(15);
  RetryPolicy policy;  // deadline_ticks = 512 by default
  policy.initial_backoff_ticks = 5;
  policy.backoff_multiplier = 1.0;
  auto result = RunRetryLadder<int>(
      policy, deadline, &clock, /*breaker=*/nullptr, "nested call",
      [](size_t) -> Result<int> { return Status::Unavailable("busy"); });
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(clock.now(), deadline.tick());
}

TEST(DeadlineTest, ErrorHelperIsTyped) {
  Status status = DeadlineExceededError("pir read");
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(status.message().find("pir read"), std::string::npos);
}

}  // namespace
}  // namespace tripriv
