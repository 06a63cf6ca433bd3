// Per-backend circuit breaker on simulated time.
//
// Classic three-state breaker: kClosed passes everything and counts
// consecutive failures; `failure_threshold` of them trip it to kOpen, which
// rejects instantly (protecting both the caller's deadline budget and the
// struggling backend) until a seed-deterministic reopen tick; the first
// allowed request after that runs in kHalfOpen as a probe, and
// `half_open_successes` consecutive probe successes close the breaker while
// any probe failure re-opens it; a probe abandoned on the caller's deadline
// frees its slot without a verdict. RunRetryLadder (util/retry.h) reports
// every attempt it gates. The reopen tick carries seeded jitter so
// replicated services do not retry-stampede a recovering backend in
// lock-step — the jitter draws from an explicit Rng, keeping chaos runs
// bit-reproducible.

#pragma once

#include <cstdint>

#include "util/clock.h"
#include "util/random.h"
#include "util/status.h"

namespace tripriv {

/// Breaker tuning.
struct CircuitBreakerConfig {
  /// Consecutive failures that trip the breaker.
  size_t failure_threshold = 3;
  /// Base ticks the breaker stays open before probing.
  uint64_t open_ticks = 32;
  /// Uniform jitter in [0, open_jitter_ticks] added to each open period.
  uint64_t open_jitter_ticks = 8;
  /// Consecutive half-open successes required to close again.
  size_t half_open_successes = 2;
  /// Seed of the jitter RNG.
  uint64_t seed = 0xB4EA;
};

/// Breaker state, exposed for tests and stats.
enum class BreakerState : uint8_t {
  kClosed,    ///< traffic flows; failures are counted
  kOpen,      ///< traffic rejected until the reopen tick
  kHalfOpen,  ///< one probe at a time decides open vs closed
};

const char* BreakerStateToString(BreakerState state);

/// Three-state circuit breaker; see file comment.
class CircuitBreaker {
 public:
  CircuitBreaker(const CircuitBreakerConfig& config, SimClock* clock);

  /// True when the caller may attempt the backend now. In kHalfOpen only
  /// one in-flight probe is allowed; further calls are rejected until the
  /// probe reports via RecordSuccess/RecordFailure/RecordAbandoned.
  bool AllowRequest();

  /// Reports the outcome of an allowed request.
  void RecordSuccess();
  void RecordFailure();
  /// Reports an allowed request that ended without a verdict on the
  /// backend (the caller's deadline ran out). Frees a half-open probe slot
  /// and counts neither a success nor a failure; no-op when closed or open.
  void RecordAbandoned();

  BreakerState state() const { return state_; }
  size_t times_opened() const { return times_opened_; }
  /// Requests rejected by an open breaker (or a busy half-open probe slot).
  size_t rejected() const { return rejected_; }
  /// Failures counted toward the trip threshold since the last success.
  size_t consecutive_failures() const { return consecutive_failures_; }
  /// Consecutive probe successes recorded in the current half-open episode.
  size_t half_open_successes() const { return half_open_successes_; }
  /// Total probe requests admitted while half-open, across all episodes.
  size_t half_open_probes() const { return half_open_probes_; }
  /// True while an admitted half-open probe has not yet reported.
  bool probe_in_flight() const { return probe_in_flight_; }

 private:
  void TripOpen();

  CircuitBreakerConfig config_;
  SimClock* clock_;
  Rng rng_;
  BreakerState state_ = BreakerState::kClosed;
  size_t consecutive_failures_ = 0;
  size_t half_open_successes_ = 0;
  bool probe_in_flight_ = false;
  uint64_t reopen_at_ = 0;
  size_t times_opened_ = 0;
  size_t rejected_ = 0;
  size_t half_open_probes_ = 0;
};

}  // namespace tripriv
