// Retry policies for operations over unreliable substrates.
//
// The SMC protocols run over a simulated lossy network (smc/party.h); a
// RetryPolicy bounds how hard a reliability layer fights the faults before
// surfacing a typed transient error. Time is measured in *simulated ticks*
// (PartyNetwork's clock), never wall clock, so chaos experiments stay
// bit-reproducible: a given seed always retries, backs off, and gives up at
// exactly the same points.
//
// RunRetryLadder is the one retry loop of the serving paths: the primary
// query path, the private aggregate count and the failover PIR read each
// pass it the attempt they make and nothing else, so the deadline check,
// breaker gating, backoff charging and give-up message are written once.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/circuit_breaker.h"
#include "util/clock.h"
#include "util/status.h"

namespace tripriv {

/// Bounded-attempt exponential backoff with a total deadline budget.
struct RetryPolicy {
  /// Transmissions allowed per message (first send + retransmissions).
  size_t max_attempts = 6;
  /// Backoff before the first retransmission, in simulated ticks.
  uint64_t initial_backoff_ticks = 1;
  /// Multiplier applied per additional attempt (>= 1).
  double backoff_multiplier = 2.0;
  /// Backoff ceiling, in simulated ticks.
  uint64_t max_backoff_ticks = 64;
  /// Total simulated-tick budget of one blocking receive; when the budget
  /// is exhausted the operation fails with kDeadlineExceeded (or
  /// kUnavailable when a peer is known to have crashed).
  uint64_t deadline_ticks = 512;

  /// Backoff before retransmission number `attempt` (0-based):
  /// min(initial * multiplier^attempt, max), and at least 1 tick.
  uint64_t BackoffTicks(size_t attempt) const;
};

/// True when `status` is worth retrying under a RetryPolicy.
inline bool IsTransient(const Status& status) {
  return IsTransientCode(status.code());
}

/// Runs `attempt(i)` (a callable returning Result<T>) for i = 0, 1, ... up to
/// max(1, policy.max_attempts) times on simulated time. Before each attempt
/// an expired `deadline` ends the ladder with kDeadlineExceeded "<what>
/// after i attempt(s)", and then a refusing `breaker` (may be null) ends it
/// with kUnavailable "<what> circuit breaker is open" without running the
/// attempt. A transient result other than kDeadlineExceeded counts as a
/// breaker failure and is retried after BackoffTicks(i) is charged to
/// `clock` (the last attempt too). Any other result is returned: OK and
/// permanent errors count as breaker successes (the backend answered), and
/// kDeadlineExceeded abandons the attempt (the budget was the caller's).
/// When every attempt was retried the ladder fails with kUnavailable
/// "<what> failed after N attempt(s); last: <message>". The policy's
/// deadline_ticks is not read: `deadline` bounds the whole ladder. Fault
/// draws belong inside `attempt`, so the rng order is the caller's.
template <typename T, typename Attempt>
Result<T> RunRetryLadder(const RetryPolicy& policy, const Deadline& deadline,
                         SimClock* clock, CircuitBreaker* breaker,
                         const std::string& what, Attempt&& attempt) {
  const size_t attempts = policy.max_attempts < 1 ? 1 : policy.max_attempts;
  Status last;
  for (size_t i = 0; i < attempts; ++i) {
    if (deadline.expired(*clock)) {
      return DeadlineExceededError(what + " after " + std::to_string(i) +
                                   " attempt(s)");
    }
    if (breaker != nullptr && !breaker->AllowRequest()) {
      return Status::Unavailable(what + " circuit breaker is open");
    }
    Result<T> result = attempt(i);
    const StatusCode code = result.status().code();
    if (code == StatusCode::kDeadlineExceeded) {
      if (breaker != nullptr) breaker->RecordAbandoned();
      return result;
    }
    if (!IsTransientCode(code)) {
      if (breaker != nullptr) breaker->RecordSuccess();
      return result;
    }
    if (breaker != nullptr) breaker->RecordFailure();
    last = result.status();
    clock->Advance(policy.BackoffTicks(i));
  }
  return Status::Unavailable(what + " failed after " +
                             std::to_string(attempts) +
                             " attempt(s); last: " + last.message());
}

}  // namespace tripriv

