// Simulated multi-party network with transcript recording and fault injection.
//
// Crypto PPDM (Lindell-Pinkas [18, 19]) runs between autonomous data
// owners. TriPriv simulates the parties in-process: protocols exchange
// messages through a PartyNetwork that records every message. The
// transcript is the basis of the owner-privacy measurement — a protocol
// leaks exactly what its transcript reveals to the other parties, so the
// scoreboard's transcript scan (attack/scoreboard.h) can check that only
// masked values and final aggregates ever cross party boundaries.
//
// Production owners fail: messages drop, duplicate, reorder, corrupt, and
// whole parties crash. A deterministic, seed-driven FaultPlan injects those
// adversities into the fabric so the protocols can be exercised (and
// measured) under partial failure. The zero-fault default is byte-identical
// to the original reliable FIFO fabric. Fault decisions draw from a
// dedicated fault RNG, so enabling faults never perturbs the parties'
// protocol randomness — a faulty run that completes computes exactly the
// same values as the fault-free run with the same seed.
//
// Time is a simulated tick counter: each Receive poll advances one tick,
// and reliability layers (smc/reliable_channel.h) advance it further when
// backing off. Deadlines are measured against this clock, never wall time.

#pragma once

#include <deque>
#include <string>
#include <vector>

#include "core/annotations.h"
#include "util/bigint.h"
#include "util/random.h"
#include "util/retry.h"
#include "util/status.h"

namespace tripriv {

/// One protocol message.
struct PartyMessage {
  size_t from = 0;
  size_t to = 0;
  std::string tag;              ///< protocol step label
  std::vector<BigInt> payload;  ///< transmitted values
};

/// Kind of an injected fault (for the fault log / transcript accounting).
enum class FaultType {
  kDrop,       ///< message lost on the wire
  kDuplicate,  ///< message delivered twice
  kReorder,    ///< message overtook older pending messages
  kCorrupt,    ///< a payload value was perturbed in flight
  kDelay,      ///< delivery postponed by latency ticks
  kCrash,      ///< a party died (one event, at the crash step)
  kCrashDrop,  ///< message involving a crashed party, discarded
};

/// Human-readable name of a FaultType ("Drop", "Duplicate", ...).
const char* FaultTypeToString(FaultType type);

/// One injected fault, recorded alongside the transcript so experiments can
/// account for exactly which adversities a run survived.
struct FaultEvent {
  uint64_t tick = 0;
  FaultType type = FaultType::kDrop;
  size_t from = 0;
  size_t to = 0;
  std::string tag;  ///< tag of the affected message (empty for kCrash)
};

/// Deterministic, seed-driven adversity schedule for a PartyNetwork.
///
/// All rates are independent per-message probabilities in [0, 1]; the
/// decisions are drawn from a dedicated RNG seeded with `seed`. A
/// default-constructed plan injects nothing, but *installing* any plan (even
/// a trivial one) switches the SMC protocols onto the reliable-channel code
/// path (see smc/reliable_channel.h).
struct FaultPlan {
  double drop_rate = 0.0;       ///< P(message silently lost)
  double duplicate_rate = 0.0;  ///< P(message delivered twice)
  double reorder_rate = 0.0;    ///< P(message jumps the mailbox queue)
  double corrupt_rate = 0.0;    ///< P(one payload value perturbed)
  /// Uniform delivery latency in [0, max_latency_ticks] simulated ticks.
  uint32_t max_latency_ticks = 0;

  /// Sentinel: no party crashes.
  static constexpr size_t kNoCrash = static_cast<size_t>(-1);
  /// Party that crashes (kNoCrash to disable).
  size_t crash_party = kNoCrash;
  /// Network step (Send/Receive op count) at which the crash fires.
  uint64_t crash_at_step = 0;

  /// Seed of the fault RNG (independent of the parties' protocol RNGs).
  uint64_t seed = 0x5EEDFA17;
};

/// In-process message fabric between `num_parties` simulated parties.
class PartyNetwork {
 public:
  /// Creates the fabric; each party gets an independent RNG forked from
  /// `seed`. The fabric is perfectly reliable until InjectFaults is called.
  PartyNetwork(size_t num_parties, uint64_t seed);

  size_t num_parties() const { return rngs_.size(); }

  /// Installs `plan` and switches the fabric (and the SMC protocols built
  /// on it) into fault-injection mode. Call before running a protocol.
  void InjectFaults(const FaultPlan& plan);

  /// True once InjectFaults has been called.
  bool fault_injection_enabled() const { return faults_enabled_; }

  const FaultPlan& fault_plan() const { return plan_; }

  /// Retry/deadline policy the reliable channel uses on this fabric.
  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_policy_; }

  /// Enqueues a message. `from`/`to` must be valid party indices. Always
  /// records the attempt in the transcript; under fault injection the
  /// delivery may be dropped, duplicated, reordered, corrupted, or delayed.
  /// Sending to/from a crashed party succeeds locally but delivers nothing.
  TRIPRIV_SINK(wire)
  Status Send(size_t from, size_t to, std::string tag,
              std::vector<BigInt> payload);

  /// Dequeues the oldest *deliverable* message addressed to `to` (delayed
  /// messages stay invisible until their latency elapses). Unavailable when
  /// nothing is deliverable — a transient condition worth retrying — and
  /// advances the simulated clock by one tick per poll.
  Result<PartyMessage> Receive(size_t to);

  /// Party-private randomness.
  Rng* rng(size_t party);

  /// Simulated clock, in ticks.
  uint64_t now() const { return tick_; }
  /// Advances the simulated clock (used by backoff in reliability layers).
  void AdvanceTicks(uint64_t ticks) { tick_ += ticks; }

  /// True when `party` has crashed under the installed fault plan.
  bool crashed(size_t party) const;
  /// True when any party has crashed.
  bool any_crashed() const { return crash_fired_; }

  /// Monotonic id for reliable-channel sessions (stale-message isolation).
  uint64_t NextChannelSession() { return ++channel_sessions_; }

  /// Every message ever sent, in order (including attempts the fault plan
  /// later dropped: an eavesdropper on the wire saw them).
  const std::vector<PartyMessage>& transcript() const { return transcript_; }

  /// Every injected fault, in order.
  const std::vector<FaultEvent>& fault_log() const { return fault_log_; }

  /// Total payload volume sent so far, counted in BigInt bytes (magnitude
  /// bytes, minimum 1 per value) — the communication-cost metric of the
  /// SMC benchmarks. Retransmissions and acks count: reliability is paid
  /// for in bytes.
  size_t bytes_transferred() const { return bytes_; }

  size_t messages_sent() const { return transcript_.size(); }

 private:
  /// A mailbox entry: the message plus the tick it becomes deliverable.
  struct Delivery {
    PartyMessage msg;
    uint64_t deliver_at = 0;
  };

  /// Counts one network op and fires the scheduled crash when due.
  void StepAndMaybeCrash();
  void RecordFault(FaultType type, size_t from, size_t to,
                   const std::string& tag);
  /// Applies latency/corruption/duplication/reordering to one delivery.
  void Deliver(const PartyMessage& msg);

  std::vector<Rng> rngs_;
  std::vector<std::deque<Delivery>> mailboxes_;
  std::vector<PartyMessage> transcript_;
  std::vector<FaultEvent> fault_log_;
  size_t bytes_ = 0;

  bool faults_enabled_ = false;
  FaultPlan plan_;
  Rng fault_rng_;
  RetryPolicy retry_policy_;
  uint64_t tick_ = 0;
  uint64_t steps_ = 0;
  bool crash_fired_ = false;
  uint64_t channel_sessions_ = 0;
};

}  // namespace tripriv

