// Simulated time for the serving path: SimClock and Deadline.
//
// Like PartyNetwork's tick counter on the SMC side, SimClock is a pure
// logical clock — it only moves when a component explicitly charges time to
// it (query evaluation, admission slots, retry backoff). No wall clock is
// ever read (the no-wall-clock lint rule enforces this tree-wide), so every
// deadline decision, load-shed, and circuit-breaker transition replays
// bit-identically for a given seed and workload.
//
// A Deadline is an absolute tick on a SimClock. It propagates down the call
// chain — service front-end → query evaluation → backend retries → PIR
// server calls — so one request-level time budget bounds every nested
// operation (see RunRetryLadder in util/retry.h).

#pragma once

#include <cstdint>
#include <string>

#include "util/status.h"

namespace tripriv {

/// Deterministic logical clock, measured in simulated ticks.
class SimClock {
 public:
  /// Current simulated time.
  uint64_t now() const { return tick_; }

  /// Advances the clock; components call this to charge simulated work.
  void Advance(uint64_t ticks) { tick_ += ticks; }

 private:
  uint64_t tick_ = 0;
};

/// An absolute point on a SimClock by which an operation must finish.
/// Default-constructed deadlines are infinite (never expire).
class Deadline {
 public:
  /// Tick value representing "no deadline".
  static constexpr uint64_t kInfinite = UINT64_MAX;

  /// Infinite deadline.
  constexpr Deadline() = default;

  /// Deadline at absolute tick `tick`.
  static Deadline AtTick(uint64_t tick) { return Deadline(tick); }

  /// Deadline `ticks` from `clock`'s current time (saturating).
  static Deadline After(const SimClock& clock, uint64_t ticks) {
    const uint64_t now = clock.now();
    return Deadline(ticks > kInfinite - now ? kInfinite : now + ticks);
  }

  bool infinite() const { return tick_ == kInfinite; }
  uint64_t tick() const { return tick_; }

  /// True when `clock` has reached (or passed) the deadline.
  bool expired(const SimClock& clock) const {
    return !infinite() && clock.now() >= tick_;
  }

  /// Ticks left before expiry; 0 when expired, kInfinite when infinite.
  uint64_t remaining_ticks(const SimClock& clock) const {
    if (infinite()) return kInfinite;
    const uint64_t now = clock.now();
    return now >= tick_ ? 0 : tick_ - now;
  }

 private:
  constexpr explicit Deadline(uint64_t tick) : tick_(tick) {}
  uint64_t tick_ = kInfinite;
};

/// kDeadlineExceeded Status naming the operation that ran out of budget.
inline Status DeadlineExceededError(const std::string& what) {
  return Status::DeadlineExceeded(what + ": simulated-time budget exhausted");
}

}  // namespace tripriv
