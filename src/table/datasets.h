// Built-in datasets: the paper's Table 1 microdata plus synthetic
// generators used by the evaluation harness.
//
// The LNCS rendering of Table 1 garbles the numeric cells, so the two
// 10-record patient datasets are reconstructed here to satisfy every
// property the text asserts about them:
//   Dataset 1: spontaneously 3-anonymous w.r.t. key attributes
//     (height, weight) — each (height, weight) combination appears at least
//     3 times — and each equivalence class carries at least two distinct
//     values of each confidential attribute (so it is also 2-sensitive).
//   Dataset 2: NOT 3-anonymous (most key combinations are unique), and it
//     contains exactly one individual with height < 165 and weight > 105,
//     whose systolic blood pressure is 146 — the record isolated by the
//     Section 3 COUNT/AVG attack.
//   Both: every patient is hypertensive (systolic >= 140), since only
//   hypertension patients underwent the trial.

#pragma once

#include <cstdint>

#include "table/data_table.h"

namespace tripriv {

/// Schema shared by the two paper datasets: height (cm) and weight (kg) are
/// integer quasi-identifiers; systolic blood pressure (mmHg, integer) and
/// AIDS (Y/N, categorical) are confidential.
Schema PatientSchema();

/// Table 1 (left): the spontaneously 3-anonymous clinical-trial dataset.
DataTable PaperDataset1();

/// Table 1 (right): the non-3-anonymous clinical-trial dataset with the
/// unique short-and-heavy respondent (160 cm, 110 kg, blood pressure 146).
DataTable PaperDataset2();

/// Synthetic hypertension drug-trial microdata with the PatientSchema
/// (plus real-valued height/weight correlation structure mapped onto the
/// integer columns). Deterministic in `seed`.
DataTable MakeClinicalTrial(size_t n, uint64_t seed);

/// Richer trial microdata for the Table 2 evaluation harness: four numeric
/// quasi-identifiers (age, height, weight, cholesterol) plus the
/// confidential systolic blood pressure (integer) and AIDS flag
/// (categorical). More quasi-identifiers make record-linkage attacks
/// realistic (with only two, nearest-neighbour linkage underestimates
/// risk). Deterministic in `seed`.
DataTable MakeExtendedTrial(size_t n, uint64_t seed);

/// Census-like microdata: age, sex, region, education (quasi-identifiers);
/// income and diagnosis (confidential). Deterministic in `seed`. This is
/// the standing workload for the SDC / Table 2 experiments.
DataTable MakeCensus(size_t n, uint64_t seed);

/// Census-scale microdata for the empirical Table 2 attack runs: four
/// numeric quasi-identifiers (age, education_years, hours_per_week, and a
/// near-unique real survey_weight) plus the categorical quasi-identifiers
/// sex and region and the confidential income (real) and
/// diagnosis (categorical). The near-unique weight makes raw-data record
/// linkage succeed almost surely — the baseline the attack suite needs —
/// while MakeCensus (above) keeps only two numeric QIs and stays
/// byte-identical for the traffic-simulator digests that depend on it.
/// Deterministic in `seed`.
DataTable MakeCensusScale(size_t n, uint64_t seed);

/// n x d binary microdata (integer 0/1 attributes "a0".."a{d-1}", all
/// quasi-identifiers except the last, which is confidential), with attribute
/// probabilities drawn so that higher d yields sparser combination space —
/// the regime of the [11] sparsity attack (Section 2).
DataTable MakeHighDimBinary(size_t n, size_t d, uint64_t seed);

/// Agrawal-Srikant-style classification benchmark data: predictors age
/// (years), salary, commission, elevel (education level 0..4), and a binary
/// class label "group" ("A"/"B") defined by `function_id` in {1, 2, 3}:
///   1: A iff age < 40 or age >= 60
///   2: A iff salary band depends on age decade (the classic F2)
///   3: A iff (age < 40 and elevel in [0,1]) or (40 <= age < 60 and
///      elevel in [1,3]) or (age >= 60 and elevel in [2,4])
DataTable MakeClassification(size_t n, int function_id, uint64_t seed);

}  // namespace tripriv

