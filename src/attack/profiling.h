// User-dimension attacks: the honest-but-curious owner profiles queriers.
//
// User privacy in the paper is the querier's interest staying hidden from
// the database owner. The adversary here IS the service: it reads its own
// query log, audit trail (service/traffic/simulator.h AccessEvent) or its
// PIR replica's observation log and tries to answer "what is this principal
// interested in?". The paper's Section 1 motivation is the August 2006 AOL
// release — 36 million user queries, each a window into a person's life.
//
//   * ProfileQueryLog / QueryLogVisibility — the plaintext statistical
//     query log: which attributes and value regions a user probed, and how
//     much of the log is visible to the owner at all.
//
//   * RunQueryLogProfilingAttack — per-principal interest profiling over
//     the access trail. Unblinded (no PIR), the owner sees every (principal,
//     key) pair: each logged event's key is read straight off the log, so
//     the principal's interest profile is recovered exactly (the simulator's
//     keys are per-event unique — MixKey(principal, tick) — so there is no
//     weaker "prediction" game to fall back to; what the log shows IS the
//     profile). PIR-blinded, the log carries no keys; the owner's best
//     attribution is a uniform guess over the key universe, scored as its
//     exact expected credit. The gap between the two runs is precisely what
//     PIR buys the user.
//
//   * RunSelectionViewGuessingAttack — the compromised-replica guessing
//     game at the PIR layer. A single XOR-PIR server retains its observed
//     selection bitmaps; for each retrieval of a known target the server
//     guesses the target from its view. One server's view is marginally
//     uniform whatever the target, so the measured success collapses to
//     chance; the no-PIR baseline (direct reads, the owner's log shows the
//     index) scores 1.0. Both modes drive a real XorPirServer observation
//     log rather than asserting the theory.

#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "attack/attack.h"
#include "querydb/query.h"
#include "service/traffic/simulator.h"

namespace tripriv {
namespace attack {

/// An owner-side profile distilled from a user's query log.
struct UserProfile {
  /// How often each attribute was referenced in WHERE clauses.
  std::map<std::string, size_t> attribute_interest;
  /// How often each aggregate function was used.
  std::map<std::string, size_t> function_use;
  /// Number of logged queries.
  size_t queries = 0;
  /// Number of distinct WHERE predicates (verbatim).
  size_t distinct_predicates = 0;

  /// The attribute the user probed most (empty when no predicates logged).
  std::string TopInterest() const;
  /// Human-readable rendering.
  std::string ToString() const;
};

/// Builds the profile an owner can extract from `log`.
UserProfile ProfileQueryLog(const std::vector<StatQuery>& log);

/// A [0, 1] score of how much the log reveals: 0 when the log is empty or
/// predicate-free, approaching 1 as queries carry many distinct,
/// attribute-rich predicates. Defined as the fraction of logged queries
/// whose full predicate is visible (which, for a plaintext query channel,
/// is all of them — the measured "none" user-privacy grade of Table 2).
double QueryLogVisibility(const std::vector<StatQuery>& log);

struct ProfilingConfig {
  /// Simulate the PIR deployment: the trail's keys are invisible and the
  /// adversary falls back to a uniform guess over the key universe.
  bool pir_blinded = false;
};

/// Profiles principals over `trail` (served-request order). Outcome:
/// trials = logged events, successes = expected correct key attributions
/// (1 per event unblinded, 1/|keys| expected blinded), equivocation = mean
/// posterior bits per event (0 unblinded, log2(keys) blinded).
Result<AttackOutcome> RunQueryLogProfilingAttack(
    const std::vector<traffic::AccessEvent>& trail,
    const ProfilingConfig& config, const AttackContext& ctx);

struct SelectionViewConfig {
  size_t num_records = 256;
  size_t record_size = 16;
  size_t trials = 64;
  /// false = the no-PIR baseline: the owner's log shows the plain index.
  bool pir = true;
};

/// The compromised-replica guessing game (see file comment). Outcome:
/// trials as configured, successes = correct target guesses, equivocation
/// = mean posterior bits over the record space.
Result<AttackOutcome> RunSelectionViewGuessingAttack(
    const SelectionViewConfig& config, const AttackContext& ctx);

}  // namespace attack
}  // namespace tripriv
