// Respondent-dimension attacks: record linkage and attribute disclosure.
//
// The adversary here is the paper's intruder with external identified data:
// they hold the ORIGINAL quasi-identifier values of every respondent (the
// strongest auxiliary-knowledge model the SDC literature scores against)
// and attack a masked release.
//
//   * RecordLinkageAttack links each original record to its nearest masked
//     record in standardized QI space; a link is a success when it lands on
//     the true row, with fractional 1/|tie set| credit for tied distances.
//     Both modes run sdc/risk.h's nearest-neighbour core over
//     LinkagePoints — both tables' QI columns in row-major buffers,
//     standardized with the original's column moments — and its one 1e-12
//     tie scan over candidates in ascending row order. In exact mode
//     (block_bins = 0) every masked row is a candidate (NearestTies) and
//     the per-row credit accumulates in index order, exactly as sdc/risk.h
//     DistanceLinkageAttack does, so the two agree bitwise
//     (LinkageReconciliationTest asserts it). In blocked mode
//     (block_bins > 0) the masked rows are grouped by cell of a
//     block_bins-per-column grid over their range, in one CSR array under
//     an exact cell key (the bins packed in mixed radix, so
//     block_bins^|qi_cols| must fit a signed 64-bit word; larger grids are
//     refused with kInvalidArgument). Each probe takes as candidates the
//     rows of the first non-empty neighbourhood of its cell at Chebyshev
//     radius 0, 1, ..., max_radius, clipped to the grid, in cell order;
//     past max_radius it is unlinkable. NearestTiesInBand sorts only the
//     candidates in the exact tie band near the minimum, and returns the
//     tie set the ascending scan over all of them would. This scales the
//     attack to 10^6 rows at slightly conservative (never inflated)
//     success rates. tests/attack/linkage_reference_test.cc keeps the
//     vector-of-vectors core this replaced, with an exact key and a full
//     candidate sort, and requires equal outcomes.
//
//   * AttributeDisclosureAttack goes one step further: after linking, the
//     adversary reads the confidential attribute off the linked rows and
//     wins when the tie-set average lands within a window of the truth —
//     the interval-disclosure notion of risk.h lifted to linked records.
//
// Both attacks run on one private pass that fills, per original row, the
// link credit, the tie-set size and the tie-set mean of the confidential
// column. RunLinkageAttacks returns both outcomes from one such pass (the
// census scoreboard's SDC and noise releases); the two single-attack calls
// run the same pass for their own outcome. The pass parallelizes over
// original rows with per-index result slots, per-shard scratch and a serial
// index-order merge, so outcomes are byte-identical at any thread count.
//
// Every column index (each QI column, the confidential column) is checked
// against both tables before any column is read; an index past either
// table's width is refused with kInvalidArgument.

#pragma once

#include <cstddef>
#include <vector>

#include "attack/attack.h"
#include "table/data_table.h"

namespace tripriv {
namespace attack {

/// Candidate-generation strategy shared by both attacks.
struct LinkageConfig {
  /// QI columns to link on; empty = the original schema's quasi-identifiers.
  std::vector<size_t> qi_cols;
  /// 0 = exact all-pairs nearest neighbor (O(n^2); reconciliation mode).
  /// > 0 = per-column grid resolution for blocked search (O(n * cell));
  /// block_bins^|qi_cols| must fit a signed 64-bit word.
  size_t block_bins = 0;
  /// Blocked mode: widen the cell neighborhood up to this Chebyshev radius
  /// before giving up on a row (unlinkable rows count as failures).
  size_t max_radius = 2;
};

/// Links original -> masked rows; requires row-aligned tables. Outcome:
/// trials = rows, successes = expected correct links, equivocation = mean
/// log2(tie-set size), prior = log2(rows).
Result<AttackOutcome> RunRecordLinkageAttack(const DataTable& original,
                                             const DataTable& masked,
                                             const LinkageConfig& config,
                                             const AttackContext& ctx);

struct AttributeDisclosureConfig {
  LinkageConfig linkage;
  /// Confidential numeric column the adversary tries to learn.
  size_t confidential_col = 0;
  /// Success window as a percentage of the confidential column's range
  /// (matches sdc/risk.h IntervalDisclosureRate semantics).
  double window_percent = 5.0;
};

/// Links each original record, then predicts its confidential value from
/// the tie set. Outcome: successes = expected rows whose confidential
/// value is pinned within the window; equivocation = mean tie-set bits.
/// Refuses, in order, what RunRecordLinkageAttack refuses before reading
/// (misaligned tables, no QI columns, an oversized grid, a QI column out of
/// range), a confidential column out of range, a window outside [0, 100]
/// (NaN included), then the first non-numeric QI or confidential cell.
Result<AttackOutcome> RunAttributeDisclosureAttack(
    const DataTable& original, const DataTable& masked,
    const AttributeDisclosureConfig& config, const AttackContext& ctx);

/// Both respondent outcomes of one release.
struct LinkageAttacks {
  AttackOutcome record_linkage;
  AttackOutcome attribute_disclosure;
};

/// RunRecordLinkageAttack(original, masked, config.linkage, ctx) followed
/// by RunAttributeDisclosureAttack(original, masked, config, ctx), from one
/// linkage pass: the same outcomes, published to ctx.metrics in the same
/// order, and the first error the two calls would return in sequence (a
/// refusal only the disclosure makes comes after the linkage outcome is
/// published, as it would).
Result<LinkageAttacks> RunLinkageAttacks(
    const DataTable& original, const DataTable& masked,
    const AttributeDisclosureConfig& config, const AttackContext& ctx);

}  // namespace attack
}  // namespace tripriv
