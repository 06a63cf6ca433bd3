// The empirical Table 2: measured grades from real attacks.
//
// The one engine that scores Table 2. For each technology class the
// scoreboard deploys the protection on an original table — the paper's
// clinical-trial running example (ClinicalTable2Config) or a synthetic
// census of 10^5-10^6 rows — runs the attack battery that models each
// dimension's adversary, and converts attacker success into protection
// scores and grades:
//
//   dimension score = mean over the cell's attacks of (1 - success rate)
//   grade           = GradeFromScore (core/framework.h bands)
//
// Batteries per dimension:
//   respondent — record linkage + attribute disclosure for masked
//     releases; min/max differencing for the query-restricted use-specific
//     deployment; bucket reconstruction for grouped (k-anonymous)
//     releases; transcript leak scan for crypto PPDM.
//   owner      — dataset-recovery scan of the release; fingerprint
//     collusion/flip battery for the fingerprinting row; transcript scan
//     for crypto PPDM.
//   user       — query-log profiling over a real traffic-simulator trail,
//     unblinded vs PIR-blinded, plus the compromised-replica selection
//     game; documented visibility constants for the two deployments whose
//     query exposure is structural (crypto: the joint analysis is known to
//     all parties; use-specific + PIR: the analysis family is known).
//
// Everything is deterministic in (table, config): serial draws, ParallelFor
// fan-outs with slot ownership, serial merges — RenderText and RenderJson
// are byte-identical at 0/1/2/8 threads, which tools/make_table2.sh
// asserts in CI.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "attack/attack.h"
#include "attack/fingerprint.h"
#include "core/technology.h"
#include "table/data_table.h"

namespace tripriv {
namespace attack {

/// Fraction of query information considered visible when the owner knows
/// the analysis family but not the parameters (Section 5's rationale for
/// the "medium" user grade of use-specific non-crypto PPDM + PIR). The one
/// modeling constant of the scoreboard that stands in for a measurement.
inline constexpr double kUseSpecificQueryVisibility = 0.5;

/// Measured state of one (technology, dimension) cell.
struct ScoreboardCell {
  std::vector<AttackOutcome> outcomes;

  /// Mean protection score over the outcomes; 0 when empty (an unattacked
  /// cell claims no protection — fail-closed).
  double score() const;
};

/// One scoreboard row with its paper comparison.
struct ScoreboardRow {
  TechnologyClass technology = TechnologyClass::kSdc;
  ScoreboardCell cells[3];  ///< indexed by Dimension

  Grade MeasuredGrade(Dimension d) const;
  Grade ClaimedGrade(Dimension d) const;
  bool AgreesWithPaper() const;
};

/// Accumulates attack outcomes into the 9 x 3 grid and renders it.
class Scoreboard {
 public:
  /// Appends `outcome` to the (t, outcome.dimension) cell.
  void Add(TechnologyClass t, AttackOutcome outcome);

  const ScoreboardRow& row(TechnologyClass t) const;
  const std::vector<ScoreboardRow>& rows() const { return rows_; }

  /// Fixed-width text table (grades, scores, paper claims, agreement),
  /// followed by one line per attack outcome. Deterministic bytes.
  std::string RenderText() const;

  /// Deterministic JSON document ({"rows": [...]}, fixed key order).
  std::string RenderJson() const;

  Scoreboard();

 private:
  std::vector<ScoreboardRow> rows_;  ///< kScoreboardTechnologies order
};

/// One full empirical Table 2 run.
struct EmpiricalTable2Config {
  /// Census rows (table/datasets.h MakeCensusScale) for the census
  /// overload; ignored when the caller supplies the table. CI runs 10^6;
  /// tier-1 tests use 10^3-10^4.
  size_t rows = 10000;
  uint64_t seed = 7;

  // --- protection deployments ---
  size_t sdc_k = 5;              ///< partitioned MDAV group size
  size_t mondrian_k = 5;         ///< generic PPDM (Mondrian) group size
  double noise_alpha = 0.5;      ///< use-specific PPDM noise level
  /// Retention probability of randomized response on categorical
  /// confidential attributes in the PPDM deployments.
  double rr_keep_probability = 0.8;
  size_t crypto_parties = 4;     ///< secure-sum shard owners

  // --- attack knobs ---
  /// Blocked-linkage grid resolution; 0 = exact all-pairs linkage.
  size_t linkage_block_bins = 24;
  double disclosure_window_percent = 5.0;
  size_t minmax_window = 5;           ///< query-size restriction k
  /// Owner-attack recovery window (percent of each numeric column's range).
  double recovery_window_percent = 2.0;

  // --- user-dimension workload ---
  uint64_t traffic_principals = 256;  ///< small pool => repeat visitors
  uint64_t traffic_windows = 24;
  size_t selection_trials = 64;
  size_t selection_records = 256;

  // --- fingerprinting ---
  size_t fingerprint_marks = 4096;
  uint32_t fingerprint_recipients = 20;
  size_t fingerprint_colluders = 5;
  double fingerprint_flip = 0.10;
  size_t fingerprint_trials = 4;
};

/// The clinical-trial preset: the census defaults with exact linkage,
/// MDAV k = 4, noise alpha = 0.4 and 256 fingerprint marks (the codec
/// refuses more marks than the trial's embeddable integer cells: 400 rows
/// x 5 integer columns = 2000).
EmpiricalTable2Config ClinicalTable2Config(uint64_t seed);

/// Deploys every technology on `original`, runs every battery, returns the
/// filled scoreboard. `original` must hold >= 10 rows (FailedPrecondition
/// otherwise), at least one numeric quasi-identifier (the linkage surface)
/// and at least one numeric confidential attribute (InvalidArgument
/// otherwise); the first numeric confidential attribute in schema order is
/// the disclosure, differencing and bucket target. config.rows is ignored.
/// Uses ctx.pool for fan-outs and ctx.metrics for outcome instruments;
/// deterministic in (original, config) — ctx.seed is ignored, the config's
/// seed governs so a scoreboard is reproducible from its inputs alone.
Result<Scoreboard> RunEmpiricalTable2(const DataTable& original,
                                      const EmpiricalTable2Config& config,
                                      const AttackContext& ctx);

/// The census shorthand: RunEmpiricalTable2 over
/// MakeCensusScale(config.rows, config.seed); needs config.rows >= 100.
Result<Scoreboard> RunEmpiricalTable2(const EmpiricalTable2Config& config,
                                      const AttackContext& ctx);

/// Owner-dimension dataset recovery: the fraction of original cells the
/// row-aligned `release` pins down (exact match for categoricals, within
/// +-window_percent of the column range for numerics, as
/// sdc/risk.h IntervalDisclosureRate). Equivocation models the residual
/// per-cell uncertainty at window granularity: a recovered cell is pinned
/// (0 bits), an unrecovered numeric cell still hides among ~100/window
/// window-widths. `window_percent` must lie in (0, 100].
Result<AttackOutcome> RunDatasetRecoveryAttack(const DataTable& original,
                                               const DataTable& release,
                                               double window_percent,
                                               const AttackContext& ctx);

}  // namespace attack
}  // namespace tripriv
