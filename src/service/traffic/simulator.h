// The million-principal traffic simulator: generator -> fair scheduler ->
// BatchExecutor -> QueryService, all on one SimClock.
//
// RunTrafficSimulation drives a seeded TrafficProfile against a real
// QueryService in fixed arrival windows: each window's arrivals enter the
// FairScheduler's bounded per-tenant queues, overload control sheds from
// over-share tenants only, and a bounded number of DRR batches per window
// dispatch through BatchExecutor — so queueing delay, deadline expiry, and
// the service's own degradation ladder all emerge from the same simulated
// timeline. Per-class latency lands in obs le-histograms for the SloGate.
//
// Determinism contract (the integration suite's core assertion): for a
// fixed SimulatorConfig the report — scheduler decision digest, WAL bytes,
// per-class totals, rendered metrics — is byte-identical at 0, 1, 2, and 8
// worker threads. The only parallel stage is BatchExecutor's pure Prepare
// fan-out; every stateful step (generation, scheduling, submission,
// metric pushes) runs in this file's serial loop.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/instruments.h"
#include "obs/metrics.h"
#include "service/batch_executor.h"
#include "service/traffic/fair_scheduler.h"
#include "service/traffic/traffic_profile.h"
#include "util/thread_pool.h"

namespace tripriv {
namespace traffic {

/// One simulation run, end to end.
struct SimulatorConfig {
  TrafficProfile profile = TrafficProfile::Steady(1);
  FairSchedulerConfig scheduler;
  /// Ticks per arrival window (one generate/enqueue/drain cycle).
  uint64_t window_ticks = 16;
  uint64_t num_windows = 64;
  /// DRR batches dispatched per window — the service-capacity knob that
  /// makes overload (and queueing latency) possible at all.
  size_t batches_per_window = 2;
  /// Extra windows after arrivals stop, to drain the backlog.
  uint64_t drain_windows = 8;
  /// Backend table (MakeCensus rows / seed).
  size_t table_rows = 256;
  uint64_t table_seed = 42;
  /// Service ladder configuration; the simulator widens admission to the
  /// scheduler's batch size so fair queueing is the shedding point.
  QueryServiceConfig service;
  /// Records one AccessEvent per served request into the report — the
  /// owner-side audit trail the src/attack/ query-log profiling adversary
  /// consumes. Off by default: the trail holds principal ids (respondent-
  /// scoped), so only attack harnesses should ask for it.
  bool record_access_trail = false;
};

/// One served request as the owner's audit log sees it. This is attack
/// auxiliary knowledge: `principal` and `key` are the fields PIR is meant
/// to hide, and the profiling adversary measures exactly how much of them
/// each deployment exposes.
struct AccessEvent {
  uint64_t tick = 0;
  uint8_t cls = 0;
  /// Simulated end user — respondent-scoped; never exported, only handed
  /// to the attack suite as ground truth / the unblinded owner view.
  TRIPRIV_SENSITIVE(record)
  uint64_t principal = 0;
  /// Query-shape key the request resolved to (what the owner's log shows
  /// without PIR; hidden from the blinded view). Named `query_key`, not
  /// `key`: tripriv_taint pools member sensitivity by bare field name, and
  /// annotating a name as generic as `key` would taint every `.key` in the
  /// tree (the metrics allowlist's for one).
  TRIPRIV_SENSITIVE(record)
  uint64_t query_key = 0;
  uint8_t tier = 0;
};

/// Per-class outcome tallies (indexed by obs::kClass*).
struct ClassTotals {
  uint64_t arrivals = 0;
  uint64_t shed_queue_full = 0;
  uint64_t shed_overload = 0;
  uint64_t shed_deadline = 0;
  /// Served answers by tier.
  uint64_t protected_answers = 0;
  uint64_t dp_answers = 0;
  uint64_t refusals = 0;
  /// Sum of queue-to-completion latency ticks over served requests.
  uint64_t latency_ticks_sum = 0;
  uint64_t served = 0;
};

/// What a run returns; every field is part of the determinism contract.
struct SimulationReport {
  ClassTotals by_class[obs::kNumTenantClasses];
  /// FNV digest of every scheduler decision, in order.
  uint64_t scheduler_digest = 0;
  /// Bytes in the audit WAL after the run.
  uint64_t wal_bytes = 0;
  uint64_t total_events = 0;
  uint64_t final_tick = 0;
  /// obs JSON export (empty when `registry` was null).
  std::string metrics_json;
  /// Served-request audit trail, in completion order; empty unless
  /// SimulatorConfig::record_access_trail. Part of the determinism
  /// contract like every other field.
  std::vector<AccessEvent> access_trail;

  /// Arrivals across all classes.
  uint64_t total_arrivals() const;
  /// Requests that left the system as typed refusals at the scheduler
  /// (queue_full + overload + deadline) — never unprotected answers.
  uint64_t total_scheduler_sheds() const;
};

/// Runs `config` to completion. `pool` may be null (serial Prepare);
/// `registry` may be null (no metrics export). The per-class latency
/// histograms the SloGate needs are registered on `registry` when given.
Result<SimulationReport> RunTrafficSimulation(const SimulatorConfig& config,
                                              ThreadPool* pool,
                                              obs::MetricsRegistry* registry);

}  // namespace traffic
}  // namespace tripriv
