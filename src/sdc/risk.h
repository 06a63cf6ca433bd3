// Disclosure-risk measurement: the attacks that operationalize
// "respondent privacy".
//
// Respondent privacy in the paper means resistance to re-identification.
// This module implements the standard empirical attacks used in the SDC
// literature ([17, 26]) to score it:
//   * distance-based record linkage — the intruder holds the original
//     quasi-identifier values (external identified data, like gauging the
//     height and weight of someone he knows) and links each of them to the
//     nearest released record;
//   * expected re-identification rate of a released table under the
//     prosecutor model (uniform guessing within an equivalence class);
//   * interval disclosure — even without exact linkage, a masked value that
//     stays within a narrow interval of the original leaks it.

#pragma once

#include <utility>
#include <vector>

#include "table/data_table.h"

namespace tripriv {

/// Outcome of a record-linkage attack.
struct LinkageResult {
  /// Exact expected number of correct links under fractional tie credit
  /// (each tie set containing the true row credits 1/|ties|). This is the
  /// figure the attack subsystem (src/attack/linkage.h) reconciles against:
  /// `correct` is only its rounded rendering and must never be used to
  /// derive a rate (correct/total drifts from correct_fraction whenever the
  /// expectation is fractional — the metric drift the PR 10 reconciliation
  /// test pins down).
  double expected_correct = 0.0;
  size_t correct = 0;  ///< llround(expected_correct), for display
  size_t total = 0;
  double correct_fraction = 0.0;  ///< expected_correct / total
};

/// The linkage core's points: the quasi-identifier columns of an original
/// table and of its row-aligned release, each row-major n x dims in one
/// buffer, standardized column by column with the ORIGINAL's mean and
/// sample sd (the attacker's external data defines the scale; a constant
/// column is only centered): x -> (x - mean) * (1 / sd).
struct LinkagePoints {
  size_t dims = 0;
  size_t rows = 0;               ///< in each table
  std::vector<double> external;  ///< the original's rows: the probes
  std::vector<double> released;  ///< the release's rows: the candidates

  const double* probe(size_t i) const { return external.data() + i * dims; }
  const double* candidate(size_t j) const {
    return released.data() + j * dims;
  }
};

/// Reads `qi_cols` of both tables into LinkagePoints. Fails when the row
/// counts differ, else on the first non-numeric cell in row-major order,
/// the original's before the release's.
Result<LinkagePoints> StandardizedLinkagePoints(
    const DataTable& original, const DataTable& masked,
    const std::vector<size_t>& qi_cols);

/// Writes to `ties` the nearest-neighbour tie set of `probe` among
/// `candidates` (indices into `points.released`): the candidates whose
/// squared distance is within 1e-12 of the running minimum. `candidates`
/// must be ascending, so the scan order — and with it the floating-point
/// trajectory of the running minimum — does not depend on how the
/// candidates were gathered. `ties` is cleared first and keeps its
/// capacity. The exact-mode core of DistanceLinkageAttack and
/// src/attack/linkage.h.
void NearestTies(const LinkagePoints& points, const double* probe,
                 const std::vector<size_t>& candidates,
                 std::vector<size_t>* ties);

/// What NearestTiesInBand reuses across the probes of one shard.
struct TieBandScratch {
  std::vector<double> distance;  ///< per candidate, in the caller's order
  std::vector<std::pair<size_t, double>> band;  ///< (row, squared distance)
};

/// NearestTies over `candidates` in any order: the tie set NearestTies
/// returns over the same indices sorted ascending, bit for bit, without
/// sorting them. `candidates` must be distinct. Each squared distance is
/// computed once into `scratch`. The band threshold theta starts at the
/// least non-NaN distance and is raised to the next larger distance u
/// while u - theta <= 4e-12 + 2^-50 * u; only the band (distance <= theta)
/// is sorted by row and scanned. The band is exact: the first band row
/// the ascending scan meets beats any running minimum above theta by more
/// than 1e-12, so it resets the scan as it does the band's, and once the
/// minimum is <= theta every row above theta misses both 1e-12 tests (the
/// gap above theta exceeds 4e-12 plus rounding). A fixed band m + c is not
/// exact: a chain of rows each within 1e-12 of the next can reach past it.
/// The blocked-mode core of src/attack/linkage.h.
void NearestTiesInBand(const LinkagePoints& points, const double* probe,
                       const std::vector<size_t>& candidates,
                       TieBandScratch* scratch, std::vector<size_t>* ties);

/// Distance-based record linkage. `original` and `masked` must have the
/// same row count with row i of both referring to the same respondent. For
/// each original record, the attack links the nearest masked record on the
/// standardized numeric columns `qi_cols`; a link is correct when it points
/// to the true row. Ties resolve to the lowest row (conservative for the
/// attacker when groups share a centroid: we instead credit the attacker
/// with probability 1/|tie set| when the true row is among the ties).
/// Misaligned tables, no `qi_cols` and a column past either table's width
/// are refused with kInvalidArgument before any column is read.
Result<LinkageResult> DistanceLinkageAttack(const DataTable& original,
                                            const DataTable& masked,
                                            const std::vector<size_t>& qi_cols);

/// DistanceLinkageAttack over the schema's quasi-identifiers.
Result<LinkageResult> DistanceLinkageAttack(const DataTable& original,
                                            const DataTable& masked);

/// Expected fraction of respondents an intruder re-identifies from the
/// released table alone under the prosecutor model: each equivalence class
/// of size s contributes s * (1/s) = 1 correct guess in expectation, so the
/// rate is (#classes / #rows). Equals 1.0 when all rows are unique and
/// <= 1/k for a k-anonymous table.
double ExpectedReidentificationRate(const DataTable& table,
                                    const std::vector<size_t>& qi_cols);

/// ExpectedReidentificationRate over the schema's quasi-identifiers.
double ExpectedReidentificationRate(const DataTable& table);

/// Fraction of cells in `col` whose masked value lies within
/// +-(window_percent/100)*range(original column) of the original value —
/// interval disclosure (a small value means the mask genuinely hides
/// magnitudes; 1.0 means values are essentially published). Refuses
/// misaligned tables, a window outside [0, 100] (NaN included) and a `col`
/// past either table's width with kInvalidArgument, in that order.
Result<double> IntervalDisclosureRate(const DataTable& original,
                                      const DataTable& masked, size_t col,
                                      double window_percent);

}  // namespace tripriv

