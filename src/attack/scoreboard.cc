#include "attack/scoreboard.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "attack/equivocation.h"
#include "attack/linkage.h"
#include "attack/nussbaum.h"
#include "attack/profiling.h"
#include "ppdm/randomized_response.h"
#include "sdc/mondrian.h"
#include "sdc/noise.h"
#include "sdc/partitioned_mdav.h"
#include "sdc/risk.h"
#include "service/traffic/simulator.h"
#include "smc/reliable_channel.h"
#include "smc/secure_sum.h"
#include "table/datasets.h"

namespace tripriv {
namespace attack {
namespace {

size_t RowIndexOf(TechnologyClass t) {
  for (size_t i = 0; i < kScoreboardTechnologies.size(); ++i) {
    if (kScoreboardTechnologies[i] == t) return i;
  }
  return 0;
}

size_t DimIndexOf(Dimension d) { return static_cast<size_t>(d); }

/// Numeric quasi-identifier columns (the linkage attack surface).
std::vector<size_t> NumericQiCols(const DataTable& t) {
  std::vector<size_t> out;
  for (size_t c : t.schema().QuasiIdentifierIndices()) {
    if (t.schema().attribute(c).type != AttributeType::kCategorical) {
      out.push_back(c);
    }
  }
  return out;
}

/// All numeric columns (the PPDM deployments mask every one of them —
/// supporting broad analyses is what lets PPDM protect the confidential
/// payload too, the paper's rationale for rating PPDM owner privacy above
/// SDC's).
std::vector<size_t> NumericCols(const DataTable& t) {
  std::vector<size_t> out;
  for (size_t c = 0; c < t.schema().size(); ++c) {
    if (t.schema().attribute(c).type != AttributeType::kCategorical) {
      out.push_back(c);
    }
  }
  return out;
}

/// Randomized response over every categorical confidential column — the
/// PPDM deployments' treatment of the non-numeric payload.
Result<DataTable> MaskCategoricalConfidentials(DataTable release, double keep,
                                               uint64_t seed) {
  for (size_t c : release.schema().ConfidentialIndices()) {
    if (release.schema().attribute(c).type != AttributeType::kCategorical) {
      continue;
    }
    TRIPRIV_ASSIGN_OR_RETURN(
        release,
        RandomizedResponseMask(release, c, keep, seed ^ (0xC0FFEEull + c)));
  }
  return release;
}

/// Crypto-PPDM transcript scan: one party records the secure-sum wire
/// transcript and greps it for verbatim original cells. Hash-set
/// membership keeps the scan O(transcript + cells) at census scale.
Result<AttackOutcome> RunTranscriptScanAttack(const DataTable& original,
                                              size_t parties, uint64_t seed,
                                              const AttackContext& ctx) {
  const std::vector<size_t> numeric = NumericCols(original);
  PartyNetwork net(parties, seed);
  std::vector<std::vector<uint64_t>> local(
      parties, std::vector<uint64_t>(numeric.size() + 1, 0));
  std::unordered_set<int64_t> cell_values;
  for (size_t r = 0; r < original.num_rows(); ++r) {
    const size_t p = r % parties;
    local[p][0] += 1;
    for (size_t j = 0; j < numeric.size(); ++j) {
      const Value& v = original.at(r, numeric[j]);
      if (!v.is_numeric()) continue;
      const int64_t cell = std::llround(v.ToDouble());
      cell_values.insert(cell);
      local[p][j + 1] += static_cast<uint64_t>(std::max<int64_t>(0, cell));
    }
  }
  TRIPRIV_RETURN_IF_ERROR(SecureSumCounts(&net, local).status());

  // The curious party's scan: any payload word equal to an original cell
  // counts as a leak (uniformly masked shares are ~2^80, so ToI64 fails).
  size_t leaked = 0;
  size_t payload_words = 0;
  for (const auto& msg : net.transcript()) {
    if (msg.tag == "secure_sum/result") continue;  // public aggregate
    if (IsReliableControlMessage(msg)) continue;
    for (const BigInt& payload : msg.payload) {
      ++payload_words;
      const auto as_int = payload.ToI64();
      if (as_int.has_value() && cell_values.count(*as_int) > 0) ++leaked;
    }
  }
  AttackOutcome outcome;
  outcome.attack = "secure_sum_transcript_scan";
  outcome.dimension = Dimension::kRespondent;  // added to owner too
  outcome.trials = payload_words == 0 ? 1 : payload_words;
  outcome.successes = static_cast<double>(leaked);
  outcome.records_recovered = static_cast<double>(leaked);
  outcome.records_total = original.num_rows();
  outcome.prior_bits = UniformBits(original.num_rows());
  outcome.equivocation_bits =
      (1.0 - outcome.success_rate()) * outcome.prior_bits;
  outcome.note = std::to_string(parties) + " parties";
  return FinishOutcome(std::move(outcome), ctx);
}

/// A structural-visibility outcome: exposure that holds by protocol
/// definition rather than by measurement (crypto PPDM's public joint
/// analysis; the documented analysis-family visibility of use-specific
/// PPDM behind PIR). Rendered like any other outcome, with the rationale
/// in the note.
AttackOutcome StructuralOutcome(const std::string& name, Dimension dim,
                                double visibility, const std::string& note,
                                const AttackContext& ctx) {
  AttackOutcome outcome;
  outcome.attack = name;
  outcome.dimension = dim;
  outcome.trials = 1;
  outcome.successes = visibility;
  outcome.records_recovered = visibility;
  outcome.records_total = 1;
  outcome.prior_bits = 1.0;
  outcome.equivocation_bits = 1.0 - visibility;
  outcome.note = note;
  return FinishOutcome(std::move(outcome), ctx);
}

std::string PadTo(std::string s, size_t width) {
  if (s.size() < width) s.resize(width, ' ');
  return s;
}

}  // namespace

double ScoreboardCell::score() const {
  if (outcomes.empty()) return 0.0;
  double sum = 0.0;
  for (const AttackOutcome& outcome : outcomes) {
    sum += outcome.protection_score();
  }
  return sum / static_cast<double>(outcomes.size());
}

Grade ScoreboardRow::MeasuredGrade(Dimension d) const {
  return GradeFromScore(cells[DimIndexOf(d)].score());
}

Grade ScoreboardRow::ClaimedGrade(Dimension d) const {
  return PaperClaimedGrade(technology, d);
}

bool ScoreboardRow::AgreesWithPaper() const {
  for (Dimension d : kAllDimensions) {
    if (!GradesAgree(ClaimedGrade(d), MeasuredGrade(d))) return false;
  }
  return true;
}

Scoreboard::Scoreboard() {
  rows_.resize(kScoreboardTechnologies.size());
  for (size_t i = 0; i < kScoreboardTechnologies.size(); ++i) {
    rows_[i].technology = kScoreboardTechnologies[i];
  }
}

void Scoreboard::Add(TechnologyClass t, AttackOutcome outcome) {
  ScoreboardRow& row = rows_[RowIndexOf(t)];
  row.cells[DimIndexOf(outcome.dimension)].outcomes.push_back(
      std::move(outcome));
}

const ScoreboardRow& Scoreboard::row(TechnologyClass t) const {
  return rows_[RowIndexOf(t)];
}

std::string Scoreboard::RenderText() const {
  constexpr size_t kNameWidth = 36;
  constexpr size_t kCellWidth = 30;
  std::string out = "Empirical Table 2 (measured vs paper)\n";
  out += PadTo("technology", kNameWidth);
  for (Dimension d : kAllDimensions) {
    out += "  " + PadTo(DimensionToString(d), kCellWidth);
  }
  out += "  agrees\n";
  for (const ScoreboardRow& row : rows_) {
    out += PadTo(TechnologyClassToString(row.technology), kNameWidth);
    for (Dimension d : kAllDimensions) {
      std::string cell = GradeToString(row.MeasuredGrade(d));
      cell += " (";
      cell += FormatFixed(row.cells[DimIndexOf(d)].score());
      cell += ") vs ";
      cell += GradeToString(row.ClaimedGrade(d));
      out += "  " + PadTo(std::move(cell), kCellWidth);
    }
    out += row.AgreesWithPaper() ? "  yes" : "  NO";
    if (!PaperClaimsRow(row.technology)) out += " (extrapolated row)";
    out += '\n';
  }
  out += "\nattack outcomes:\n";
  for (const ScoreboardRow& row : rows_) {
    for (Dimension d : kAllDimensions) {
      for (const AttackOutcome& outcome : row.cells[DimIndexOf(d)].outcomes) {
        out += "  ";
        out += TechnologyClassToString(row.technology);
        out += ": ";
        out += OutcomeToString(outcome);
        out += '\n';
      }
    }
  }
  return out;
}

std::string Scoreboard::RenderJson() const {
  std::string json = "{\"rows\":[";
  bool first_row = true;
  for (const ScoreboardRow& row : rows_) {
    if (!first_row) json += ',';
    first_row = false;
    json += "{\"technology\":\"";
    json += TechnologyClassToString(row.technology);
    json += "\",\"paper_row\":";
    json += PaperClaimsRow(row.technology) ? "true" : "false";
    json += ",\"agrees\":";
    json += row.AgreesWithPaper() ? "true" : "false";
    json += ",\"dimensions\":{";
    bool first_dim = true;
    for (Dimension d : kAllDimensions) {
      if (!first_dim) json += ',';
      first_dim = false;
      const ScoreboardCell& cell = row.cells[DimIndexOf(d)];
      json += '"';
      json += DimensionToString(d);
      json += "\":{\"score\":";
      json += FormatFixed(cell.score());
      json += ",\"grade\":\"";
      json += GradeToString(row.MeasuredGrade(d));
      json += "\",\"claimed\":\"";
      json += GradeToString(row.ClaimedGrade(d));
      json += "\",\"agrees\":";
      json += GradesAgree(row.ClaimedGrade(d), row.MeasuredGrade(d)) ? "true"
                                                                     : "false";
      json += ",\"outcomes\":[";
      bool first_outcome = true;
      for (const AttackOutcome& outcome : cell.outcomes) {
        if (!first_outcome) json += ',';
        first_outcome = false;
        json += OutcomeToJson(outcome);
      }
      json += "]}";
    }
    json += "}}";
  }
  json += "]}";
  return json;
}

Result<AttackOutcome> RunDatasetRecoveryAttack(const DataTable& original,
                                               const DataTable& release,
                                               double window_percent,
                                               const AttackContext& ctx) {
  if (original.num_rows() != release.num_rows()) {
    return Status::InvalidArgument("recovery attack needs aligned tables");
  }
  // A zero window would put 100 / 0 = +inf window-widths in the prior.
  if (!(window_percent > 0.0 && window_percent <= 100.0)) {
    return Status::InvalidArgument(
        "recovery window must be in (0, 100] percent");
  }
  double recovered = 0.0;
  size_t total = 0;
  for (size_t c = 0; c < original.num_columns(); ++c) {
    if (original.schema().attribute(c).type == AttributeType::kCategorical) {
      size_t matches = 0;
      for (size_t r = 0; r < original.num_rows(); ++r) {
        if (original.at(r, c) == release.at(r, c)) ++matches;
      }
      recovered += static_cast<double>(matches);
    } else {
      TRIPRIV_ASSIGN_OR_RETURN(
          double rate,
          IntervalDisclosureRate(original, release, c, window_percent));
      recovered += rate * static_cast<double>(original.num_rows());
    }
    total += original.num_rows();
  }
  AttackOutcome outcome;
  outcome.attack = "dataset_recovery";
  outcome.dimension = Dimension::kOwner;
  outcome.trials = total;
  outcome.successes = recovered;
  outcome.records_recovered = recovered;
  outcome.records_total = total;
  outcome.prior_bits =
      UniformBits(static_cast<size_t>(std::max(2.0, 100.0 / window_percent)));
  outcome.equivocation_bits =
      (1.0 - outcome.success_rate()) * outcome.prior_bits;
  outcome.note = "window=" + FormatFixed(window_percent) + "%";
  return FinishOutcome(std::move(outcome), ctx);
}

EmpiricalTable2Config ClinicalTable2Config(uint64_t seed) {
  EmpiricalTable2Config config;
  config.seed = seed;
  config.linkage_block_bins = 0;
  config.sdc_k = 4;
  config.noise_alpha = 0.4;
  config.fingerprint_marks = 256;
  return config;
}

Result<Scoreboard> RunEmpiricalTable2(const DataTable& original,
                                      const EmpiricalTable2Config& config,
                                      const AttackContext& ctx) {
  if (original.num_rows() < 10) {
    return Status::FailedPrecondition("empirical Table 2 needs >= 10 rows");
  }
  const std::vector<size_t> qi_cols = NumericQiCols(original);
  if (qi_cols.empty()) {
    return Status::InvalidArgument(
        "empirical Table 2 needs a numeric quasi-identifier");
  }
  // The disclosure, differencing and bucket target: the first numeric
  // confidential attribute in schema order (income on the census).
  const Schema& schema = original.schema();
  const std::vector<size_t> confidential = schema.ConfidentialIndices();
  const auto target =
      std::find_if(confidential.begin(), confidential.end(), [&](size_t c) {
        return schema.attribute(c).type != AttributeType::kCategorical;
      });
  if (target == confidential.end()) {
    return Status::InvalidArgument(
        "empirical Table 2 needs a numeric confidential attribute");
  }
  const size_t target_col = *target;
  // The config's seed governs end to end so a scoreboard is reproducible
  // from its inputs alone.
  AttackContext actx = ctx;
  actx.seed = config.seed;

  LinkageConfig link_config;
  link_config.qi_cols = qi_cols;
  link_config.block_bins = config.linkage_block_bins;
  // The SDC and noise releases are each linked once for both respondent
  // attacks (record linkage, then attribute disclosure).
  AttributeDisclosureConfig disclosure;
  disclosure.linkage = link_config;
  disclosure.confidential_col = target_col;
  disclosure.window_percent = config.disclosure_window_percent;

  Scoreboard board;

  // --- Respondent + owner: release-based technologies -------------------

  // SDC masking: partitioned MDAV over the numeric QIs.
  TRIPRIV_ASSIGN_OR_RETURN(
      auto sdc_release,
      PartitionedMdav(original, config.sdc_k, qi_cols, actx.pool));
  {
    TRIPRIV_ASSIGN_OR_RETURN(
        LinkageAttacks linked,
        RunLinkageAttacks(original, sdc_release.table, disclosure, actx));
    TRIPRIV_ASSIGN_OR_RETURN(
        AttackOutcome recovery,
        RunDatasetRecoveryAttack(original, sdc_release.table,
                                 config.recovery_window_percent, actx));
    for (TechnologyClass t :
         {TechnologyClass::kSdc, TechnologyClass::kSdcPlusPir}) {
      board.Add(t, linked.record_linkage);
      board.Add(t, linked.attribute_disclosure);
      board.Add(t, recovery);
    }
  }

  // Use-specific non-crypto PPDM: noise over every numeric attribute plus
  // randomized response on the categorical payload; its query interface is
  // size-restricted, so the Nussbaum min/max differencing applies.
  {
    TRIPRIV_ASSIGN_OR_RETURN(
        DataTable noise_release,
        AddUncorrelatedNoise(original, config.noise_alpha,
                             NumericCols(original), config.seed));
    TRIPRIV_ASSIGN_OR_RETURN(
        noise_release,
        MaskCategoricalConfidentials(std::move(noise_release),
                                     config.rr_keep_probability,
                                     config.seed));
    TRIPRIV_ASSIGN_OR_RETURN(
        LinkageAttacks linked,
        RunLinkageAttacks(original, noise_release, disclosure, actx));
    MinMaxQueryConfig minmax;
    minmax.order_col = qi_cols[0];
    minmax.target_col = target_col;
    minmax.window = config.minmax_window;
    minmax.window_percent = config.disclosure_window_percent;
    TRIPRIV_ASSIGN_OR_RETURN(
        AttackOutcome differencing,
        RunMinMaxQueryAttack(original, noise_release, minmax, actx));
    TRIPRIV_ASSIGN_OR_RETURN(
        AttackOutcome recovery,
        RunDatasetRecoveryAttack(original, noise_release,
                                 config.recovery_window_percent, actx));
    for (TechnologyClass t :
         {TechnologyClass::kUseSpecificNonCryptoPpdm,
          TechnologyClass::kUseSpecificNonCryptoPpdmPlusPir}) {
      board.Add(t, linked.record_linkage);
      board.Add(t, linked.attribute_disclosure);
      board.Add(t, differencing);
      board.Add(t, recovery);
    }
  }

  // Generic non-crypto PPDM: Mondrian k-anonymity; the grouped release
  // invites bucket reconstruction under rank knowledge. Mondrian recodes
  // every numeric column, the confidential payload included, because
  // condensation-style generic PPDM generalizes the whole numeric payload;
  // the categorical QIs (sex, region) are left alone.
  {
    TRIPRIV_ASSIGN_OR_RETURN(
        auto mondrian, MondrianAnonymize(original, config.mondrian_k,
                                         NumericCols(original)));
    TRIPRIV_ASSIGN_OR_RETURN(
        mondrian.table,
        MaskCategoricalConfidentials(std::move(mondrian.table),
                                     config.rr_keep_probability,
                                     config.seed ^ 0x6E6Eull));
    TRIPRIV_ASSIGN_OR_RETURN(
        AttackOutcome linkage,
        RunRecordLinkageAttack(original, mondrian.table, link_config, actx));
    BucketReconstructionConfig bucket;
    bucket.target_col = target_col;
    bucket.window_percent = config.disclosure_window_percent;
    TRIPRIV_ASSIGN_OR_RETURN(
        AttackOutcome reconstruction,
        RunBucketReconstructionAttack(original, mondrian.table,
                                      mondrian.group_of_row, bucket, actx));
    TRIPRIV_ASSIGN_OR_RETURN(
        AttackOutcome recovery,
        RunDatasetRecoveryAttack(original, mondrian.table,
                                 config.recovery_window_percent, actx));
    for (TechnologyClass t :
         {TechnologyClass::kGenericNonCryptoPpdm,
          TechnologyClass::kGenericNonCryptoPpdmPlusPir}) {
      board.Add(t, linkage);
      board.Add(t, reconstruction);
      board.Add(t, recovery);
    }
  }

  // Crypto PPDM: one transcript scan feeds both data dimensions.
  {
    TRIPRIV_ASSIGN_OR_RETURN(
        AttackOutcome scan,
        RunTranscriptScanAttack(original, config.crypto_parties, config.seed,
                                actx));
    board.Add(TechnologyClass::kCryptoPpdm, scan);
    AttackOutcome owner_scan = scan;
    owner_scan.dimension = Dimension::kOwner;
    board.Add(TechnologyClass::kCryptoPpdm, owner_scan);
  }

  // PIR alone serves the original records: both data dimensions collapse.
  {
    TRIPRIV_ASSIGN_OR_RETURN(
        AttackOutcome linkage,
        RunRecordLinkageAttack(original, original, link_config, actx));
    TRIPRIV_ASSIGN_OR_RETURN(
        AttackOutcome recovery,
        RunDatasetRecoveryAttack(original, original,
                                 config.recovery_window_percent, actx));
    board.Add(TechnologyClass::kPir, linkage);
    board.Add(TechnologyClass::kPir, recovery);
  }

  // Fingerprinting: near-verbatim release (respondent), collusion-traced
  // copies (owner).
  {
    CollusionAttackConfig collusion;
    collusion.codec.marks = config.fingerprint_marks;
    collusion.codec.num_recipients = config.fingerprint_recipients;
    collusion.codec.owner_key = config.seed ^ 0xF1A6ull;
    collusion.colluders = config.fingerprint_colluders;
    collusion.trials = config.fingerprint_trials;

    // The marked release differs from the base in `marks` LSBs only;
    // linkage sees an essentially verbatim table.
    TRIPRIV_ASSIGN_OR_RETURN(
        FingerprintCodec codec,
        FingerprintCodec::Create(original, collusion.codec));
    TRIPRIV_ASSIGN_OR_RETURN(FingerprintedCopy copy, codec.Release(0));
    DataTable marked = original;
    for (const MarkCell& cell : copy.mark_cells) {
      TRIPRIV_RETURN_IF_ERROR(
          marked.Set(cell.row, cell.col, Value(cell.value)));
    }
    TRIPRIV_ASSIGN_OR_RETURN(
        AttackOutcome linkage,
        RunRecordLinkageAttack(original, marked, link_config, actx));
    board.Add(TechnologyClass::kFingerprinting, linkage);

    for (CollusionStrategy strategy :
         {CollusionStrategy::kMajority, CollusionStrategy::kMinority,
          CollusionStrategy::kRandom}) {
      CollusionAttackConfig variant = collusion;
      variant.strategy = strategy;
      if (strategy == CollusionStrategy::kMajority) {
        variant.flip_fraction = config.fingerprint_flip;
      }
      TRIPRIV_ASSIGN_OR_RETURN(AttackOutcome outcome,
                               RunCollusionAttack(original, variant, actx));
      board.Add(TechnologyClass::kFingerprinting, outcome);
    }
  }

  // --- User dimension ---------------------------------------------------

  // One traffic run with the audit trail on; both profiling views read the
  // same trail, so the PIR delta is measured on identical workloads.
  traffic::SimulatorConfig sim;
  sim.profile = traffic::TrafficProfile::Steady(config.seed);
  sim.profile.num_principals = config.traffic_principals;
  sim.num_windows = config.traffic_windows;
  sim.record_access_trail = true;
  TRIPRIV_ASSIGN_OR_RETURN(
      traffic::SimulationReport report,
      traffic::RunTrafficSimulation(sim, actx.pool, nullptr));

  ProfilingConfig unblinded;
  TRIPRIV_ASSIGN_OR_RETURN(
      AttackOutcome profiling,
      RunQueryLogProfilingAttack(report.access_trail, unblinded, actx));
  ProfilingConfig blinded;
  blinded.pir_blinded = true;
  TRIPRIV_ASSIGN_OR_RETURN(
      AttackOutcome profiling_blinded,
      RunQueryLogProfilingAttack(report.access_trail, blinded, actx));

  SelectionViewConfig selection;
  selection.num_records = config.selection_records;
  selection.trials = config.selection_trials;
  selection.pir = true;
  TRIPRIV_ASSIGN_OR_RETURN(AttackOutcome selection_pir,
                           RunSelectionViewGuessingAttack(selection, actx));
  selection.pir = false;
  TRIPRIV_ASSIGN_OR_RETURN(AttackOutcome selection_direct,
                           RunSelectionViewGuessingAttack(selection, actx));

  // No PIR: the owner's log shows principals and keys.
  for (TechnologyClass t :
       {TechnologyClass::kSdc, TechnologyClass::kUseSpecificNonCryptoPpdm,
        TechnologyClass::kGenericNonCryptoPpdm,
        TechnologyClass::kFingerprinting}) {
    board.Add(t, profiling);
    board.Add(t, selection_direct);
  }
  // PIR deployments: blinded log plus the compromised-replica game.
  for (TechnologyClass t :
       {TechnologyClass::kPir, TechnologyClass::kSdcPlusPir,
        TechnologyClass::kGenericNonCryptoPpdmPlusPir}) {
    board.Add(t, profiling_blinded);
    board.Add(t, selection_pir);
  }
  // Structural exposures (see helper comment).
  board.Add(TechnologyClass::kCryptoPpdm,
            StructuralOutcome(
                "joint_analysis_visibility", Dimension::kUser, 1.0,
                "the joint analysis is known to every party (Section 4)",
                actx));
  board.Add(TechnologyClass::kUseSpecificNonCryptoPpdmPlusPir,
            StructuralOutcome("analysis_family_visibility", Dimension::kUser,
                              kUseSpecificQueryVisibility,
                              "supported analysis family is public "
                              "(attack/scoreboard.h constant)",
                              actx));

  return board;
}

Result<Scoreboard> RunEmpiricalTable2(const EmpiricalTable2Config& config,
                                      const AttackContext& ctx) {
  if (config.rows < 100) {
    return Status::InvalidArgument("empirical Table 2 needs >= 100 rows");
  }
  return RunEmpiricalTable2(MakeCensusScale(config.rows, config.seed), config,
                            ctx);
}

}  // namespace attack
}  // namespace tripriv
