#include "util/circuit_breaker.h"

namespace tripriv {

const char* BreakerStateToString(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "?";
}

CircuitBreaker::CircuitBreaker(const CircuitBreakerConfig& config,
                               SimClock* clock)
    : config_(config), clock_(clock), rng_(config.seed) {
  TRIPRIV_CHECK(clock_ != nullptr);
  TRIPRIV_CHECK(config_.failure_threshold > 0);
  TRIPRIV_CHECK(config_.half_open_successes > 0);
}

void CircuitBreaker::TripOpen() {
  state_ = BreakerState::kOpen;
  ++times_opened_;
  consecutive_failures_ = 0;
  half_open_successes_ = 0;
  probe_in_flight_ = false;
  uint64_t jitter = 0;
  if (config_.open_jitter_ticks > 0) {
    jitter = rng_.UniformU64(config_.open_jitter_ticks + 1);
  }
  reopen_at_ = clock_->now() + config_.open_ticks + jitter;
}

bool CircuitBreaker::AllowRequest() {
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (clock_->now() < reopen_at_) {
        ++rejected_;
        return false;
      }
      state_ = BreakerState::kHalfOpen;
      probe_in_flight_ = true;
      ++half_open_probes_;
      return true;
    case BreakerState::kHalfOpen:
      if (probe_in_flight_) {
        ++rejected_;
        return false;
      }
      probe_in_flight_ = true;
      ++half_open_probes_;
      return true;
  }
  return false;
}

void CircuitBreaker::RecordSuccess() {
  switch (state_) {
    case BreakerState::kClosed:
      consecutive_failures_ = 0;
      break;
    case BreakerState::kOpen:
      // A straggler from before the trip; the open timer stands.
      break;
    case BreakerState::kHalfOpen:
      probe_in_flight_ = false;
      if (++half_open_successes_ >= config_.half_open_successes) {
        state_ = BreakerState::kClosed;
        consecutive_failures_ = 0;
        half_open_successes_ = 0;
      }
      break;
  }
}

void CircuitBreaker::RecordAbandoned() {
  if (state_ == BreakerState::kHalfOpen) probe_in_flight_ = false;
}

void CircuitBreaker::RecordFailure() {
  switch (state_) {
    case BreakerState::kClosed:
      if (++consecutive_failures_ >= config_.failure_threshold) {
        TripOpen();
      }
      break;
    case BreakerState::kOpen:
      break;
    case BreakerState::kHalfOpen:
      // The probe failed: the backend is still sick.
      TripOpen();
      break;
  }
}

}  // namespace tripriv
