#include "core/evaluator.h"

#include <cmath>
#include <set>
#include <sstream>

#include "pir/it_pir.h"
#include "pir/recursive_pir.h"
#include "ppdm/randomized_response.h"
#include "querydb/protection.h"
#include "sdc/condensation.h"
#include "sdc/microaggregation.h"
#include "sdc/noise.h"
#include "sdc/risk.h"
#include "smc/reliable_channel.h"
#include "smc/secure_sum.h"
#include "stats/descriptive.h"

namespace tripriv {

double DimensionScores::of(Dimension d) const {
  switch (d) {
    case Dimension::kRespondent:
      return respondent;
    case Dimension::kOwner:
      return owner;
    case Dimension::kUser:
      return user;
  }
  return 0.0;
}

bool TechnologyEvaluation::AgreesWithPaper() const {
  for (Dimension d : kAllDimensions) {
    if (!GradesAgree(ClaimedGrade(d), MeasuredGrade(d))) return false;
  }
  return true;
}

PrivacyEvaluator::PrivacyEvaluator(DataTable original, Options options)
    : original_(std::move(original)), options_(options) {}

namespace {

/// All numeric column indices of a table.
std::vector<size_t> NumericColumns(const DataTable& t) {
  std::vector<size_t> out;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    if (t.schema().attribute(c).type != AttributeType::kCategorical) {
      out.push_back(c);
    }
  }
  return out;
}

/// Categorical confidential columns.
std::vector<size_t> CategoricalConfidentials(const DataTable& t) {
  std::vector<size_t> out;
  for (size_t c : t.schema().ConfidentialIndices()) {
    if (t.schema().attribute(c).type == AttributeType::kCategorical) {
      out.push_back(c);
    }
  }
  return out;
}

/// Serializes a row into a fixed-size PIR record (decimal rendering,
/// zero-padded).
std::vector<uint8_t> EncodeRowAsRecord(const DataTable& t, size_t row,
                                       size_t record_size) {
  std::string text;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    text += t.at(row, c).ToDisplayString();
    text += '|';
  }
  std::vector<uint8_t> record(record_size, 0);
  for (size_t i = 0; i < text.size() && i < record_size; ++i) {
    record[i] = static_cast<uint8_t>(text[i]);
  }
  return record;
}

}  // namespace

Result<DataTable> PrivacyEvaluator::BuildRelease(TechnologyClass base,
                                                 uint64_t seed) const {
  switch (base) {
    case TechnologyClass::kSdc: {
      // SDC masking: k-anonymize the quasi-identifiers; confidential
      // attributes are released as-is for analytical validity (the reason
      // Table 2 rates SDC owner privacy below PPDM's).
      TRIPRIV_ASSIGN_OR_RETURN(auto masked,
                               MdavMicroaggregate(original_, options_.sdc_k));
      return masked.table;
    }
    case TechnologyClass::kUseSpecificNonCryptoPpdm: {
      // [5]-style: noise on every numeric attribute (the miner reconstructs
      // distributions), randomized response on categorical confidentials.
      TRIPRIV_ASSIGN_OR_RETURN(
          DataTable release,
          AddUncorrelatedNoise(original_, options_.noise_alpha,
                               NumericColumns(original_), seed));
      for (size_t c : CategoricalConfidentials(original_)) {
        TRIPRIV_ASSIGN_OR_RETURN(
            release, RandomizedResponseMask(release, c,
                                            options_.rr_keep_probability,
                                            seed ^ (0x9E37u + c)));
      }
      return release;
    }
    case TechnologyClass::kGenericNonCryptoPpdm: {
      // [1]/[2]-style: condensation over all numeric attributes (supports a
      // broad range of analyses), randomized response on categorical
      // confidentials.
      TRIPRIV_ASSIGN_OR_RETURN(
          auto condensed,
          Condense(original_, options_.condensation_k, NumericColumns(original_),
                   seed));
      DataTable release = condensed.table;
      for (size_t c : CategoricalConfidentials(original_)) {
        TRIPRIV_ASSIGN_OR_RETURN(
            release, RandomizedResponseMask(release, c,
                                            options_.rr_keep_probability,
                                            seed ^ (0xC0FFEEu + c)));
      }
      return release;
    }
    case TechnologyClass::kPir:
      // PIR alone serves the original records.
      return original_;
    default:
      return Status::InvalidArgument("no release for this technology class");
  }
}

Result<double> PrivacyEvaluator::RespondentScoreFromRelease(
    const DataTable& release) const {
  TRIPRIV_ASSIGN_OR_RETURN(auto linkage,
                           DistanceLinkageAttack(original_, release));
  return 1.0 - linkage.correct_fraction;
}

Result<double> PrivacyEvaluator::OwnerScoreFromRelease(
    const DataTable& release) const {
  // Dataset-reconstruction attack: fraction of original cells recovered.
  size_t recovered = 0;
  size_t total = 0;
  for (size_t c = 0; c < original_.num_columns(); ++c) {
    if (original_.schema().attribute(c).type == AttributeType::kCategorical) {
      for (size_t r = 0; r < original_.num_rows(); ++r) {
        ++total;
        if (original_.at(r, c) == release.at(r, c)) ++recovered;
      }
    } else {
      TRIPRIV_ASSIGN_OR_RETURN(auto rate,
                               IntervalDisclosureRate(
                                   original_, release, c,
                                   options_.recovery_window_percent));
      recovered += static_cast<size_t>(
          std::llround(rate * static_cast<double>(original_.num_rows())));
      total += original_.num_rows();
    }
  }
  const double recovery =
      total == 0 ? 0.0
                 : static_cast<double>(recovered) / static_cast<double>(total);
  return 1.0 - recovery;
}

Result<std::pair<double, double>> PrivacyEvaluator::CryptoScores(
    uint64_t seed) const {
  // Crypto PPDM deployment: `crypto_parties` owners hold horizontal shards
  // and jointly compute per-attribute sums and counts via secure sum. The
  // adversary is one of the parties: it sees the transcript.
  const size_t parties = options_.crypto_parties;
  PartyNetwork net(parties, seed);
  if (options_.chaos_drop_rate > 0.0) {
    FaultPlan plan;
    plan.drop_rate = options_.chaos_drop_rate;
    net.InjectFaults(plan);
  }
  const auto numeric = NumericColumns(original_);
  std::vector<std::vector<uint64_t>> local(parties,
                                           std::vector<uint64_t>(numeric.size() + 1, 0));
  for (size_t r = 0; r < original_.num_rows(); ++r) {
    const size_t p = r % parties;
    local[p][0] += 1;  // count
    for (size_t j = 0; j < numeric.size(); ++j) {
      const Value& v = original_.at(r, numeric[j]);
      if (v.is_numeric()) {
        local[p][j + 1] += static_cast<uint64_t>(
            std::llround(std::max(0.0, v.ToDouble())));
      }
    }
  }
  TRIPRIV_RETURN_IF_ERROR(SecureSumCounts(&net, local).status());

  // Respondent/owner attack on the transcript: scan payloads for verbatim
  // original values (a record or cell that crossed the wire in clear).
  // Under fault injection the wire carries extras that are protocol
  // metadata, not data: ack messages, the [session, seq, checksum] header
  // of each reliable message, and byte-identical retransmissions. Acks and
  // headers are skipped; retransmissions are deduplicated so a resent
  // masked value is counted exactly once — retransmitting can never leak
  // more than the original transmission did.
  size_t leaked_cells = 0;
  size_t total_cells = original_.num_rows() * numeric.size();
  const size_t header_elems =
      net.fault_injection_enabled() ? kReliableHeaderElems : 0;
  std::set<std::string> seen_payloads;
  for (const auto& msg : net.transcript()) {
    if (msg.tag == "secure_sum/result") continue;  // public aggregate
    if (IsReliableControlMessage(msg)) continue;   // acks: metadata only
    std::string fingerprint =
        std::to_string(msg.from) + '>' + std::to_string(msg.to) + ':' +
        msg.tag;
    for (const BigInt& v : msg.payload) fingerprint += ',' + v.ToHex();
    if (!seen_payloads.insert(std::move(fingerprint)).second) {
      continue;  // retransmission of an already-counted message
    }
    for (size_t i = header_elems; i < msg.payload.size(); ++i) {
      const BigInt& payload = msg.payload[i];
      auto as_int = payload.ToI64();
      if (!as_int.has_value()) continue;  // masked values are ~2^80
      for (size_t r = 0; r < original_.num_rows(); ++r) {
        for (size_t j : numeric) {
          const Value& v = original_.at(r, j);
          if (v.is_numeric() &&
              std::llround(v.ToDouble()) == *as_int) {
            ++leaked_cells;
          }
        }
      }
    }
  }
  const double leak_rate =
      total_cells == 0
          ? 0.0
          : std::min(1.0, static_cast<double>(leaked_cells) /
                              static_cast<double>(total_cells));
  // Both dimensions hinge on record/cell exposure here: respondents cannot
  // be re-identified from data that never leaves its owner, and the owner's
  // dataset cannot be reconstructed from uniformly masked partial sums.
  return std::make_pair(1.0 - leak_rate, 1.0 - leak_rate);
}

Result<double> PrivacyEvaluator::UserScoreWithPir(const DataTable& release,
                                                  uint64_t seed) const {
  // The user retrieves random records through 2-server XOR PIR (the d = 1
  // hypercube scheme); server A (the curious owner) guesses the retrieved
  // index from its view (the selection bitmap). With the subset scheme a
  // single server's view is independent of the target, so any strategy
  // degenerates to guessing.
  const size_t n = release.num_rows();
  if (n == 0) return Status::InvalidArgument("empty release");
  constexpr size_t kRecordBytes = 64;
  std::vector<std::vector<uint8_t>> records;
  records.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    records.push_back(EncodeRowAsRecord(release, r, kRecordBytes));
  }
  TRIPRIV_ASSIGN_OR_RETURN(auto server_a, XorPirServer::Create(records));
  TRIPRIV_ASSIGN_OR_RETURN(auto server_b, XorPirServer::Create(std::move(records)));
  TRIPRIV_ASSIGN_OR_RETURN(const HypercubeGeometry geometry,
                           HypercubeGeometry::Balanced(n, 1));
  const std::vector<XorPirServer*> servers{&server_a, &server_b};
  // Attack-analysis mode: the owner's guessing strategy below inspects the
  // last selection bitmap server A saw (expanded from its seed).
  server_a.EnableObservationLog(1);

  Rng user_rng(seed);
  Rng owner_rng(seed ^ 0xABCDEF);
  size_t owner_correct = 0;
  for (size_t trial = 0; trial < options_.pir_trials; ++trial) {
    const size_t secret = static_cast<size_t>(user_rng.UniformU64(n));
    TRIPRIV_RETURN_IF_ERROR(
        RecursivePirRead(servers, geometry, secret, &user_rng).status());
    // Owner strategy: pick a uniformly random set bit of the bitmap it saw
    // (the bitmap is uniform, so no strategy does better than chance).
    const auto& view = server_a.last_observed_query();
    std::vector<size_t> set_bits;
    for (size_t i = 0; i < n; ++i) {
      if ((view[i / 8] >> (i % 8)) & 1u) set_bits.push_back(i);
    }
    size_t guess;
    if (set_bits.empty()) {
      guess = static_cast<size_t>(owner_rng.UniformU64(n));
    } else {
      guess = set_bits[owner_rng.UniformU64(set_bits.size())];
    }
    if (guess == secret) ++owner_correct;
  }
  return 1.0 - static_cast<double>(owner_correct) /
                   static_cast<double>(options_.pir_trials);
}

Result<double> PrivacyEvaluator::UserScoreWithoutPir(const DataTable& release,
                                                     uint64_t seed) const {
  // Without PIR the user's statistical queries reach the owner in the
  // clear. Run the paper's Section 3 workload and check whether the owner's
  // log reproduces the user's predicates verbatim.
  ProtectionConfig config;
  config.mode = ProtectionMode::kNone;
  config.seed = seed;
  StatDatabase db(release, config);
  const std::vector<std::string> workload = {
      "SELECT COUNT(*) FROM t WHERE height < 165 AND weight > 105",
      "SELECT AVG(blood_pressure) FROM t WHERE height < 165 AND weight > 105",
  };
  size_t reconstructed = 0;
  size_t issued = 0;
  for (const auto& sql : workload) {
    auto parsed = ParseQuery(sql);
    if (!parsed.ok()) continue;
    ++issued;
    // The answer itself is irrelevant to the measurement (and may fail on a
    // generalized release); the log entry is what leaks, and Query records
    // it before any failure path.
    IgnoreError(db.Query(*parsed).status());
    const StatQuery& logged = db.query_log().back();
    if (logged.where.ToString() == parsed->where.ToString()) ++reconstructed;
  }
  if (issued == 0) return Status::Internal("workload failed to parse");
  return 1.0 - static_cast<double>(reconstructed) / static_cast<double>(issued);
}

Result<TechnologyEvaluation> PrivacyEvaluator::Evaluate(
    TechnologyClass technology) {
  if (original_.num_rows() < 10) {
    return Status::FailedPrecondition("need >= 10 rows to evaluate");
  }
  TechnologyEvaluation eval;
  eval.technology = technology;
  const TechnologyClass base = BaseClass(technology);
  const uint64_t seed = options_.seed;

  if (base == TechnologyClass::kCryptoPpdm) {
    TRIPRIV_ASSIGN_OR_RETURN(auto scores, CryptoScores(seed));
    eval.scores.respondent = scores.first;
    eval.scores.owner = scores.second;
    // The joint analysis is known to every party by construction
    // (Section 4): query visibility is total.
    eval.scores.user = 0.0;
    return eval;
  }

  TRIPRIV_ASSIGN_OR_RETURN(DataTable release, BuildRelease(base, seed));
  TRIPRIV_ASSIGN_OR_RETURN(eval.scores.respondent,
                           RespondentScoreFromRelease(release));
  TRIPRIV_ASSIGN_OR_RETURN(eval.scores.owner, OwnerScoreFromRelease(release));
  if (!IncludesPir(technology)) {
    TRIPRIV_ASSIGN_OR_RETURN(eval.scores.user,
                             UserScoreWithoutPir(release, seed));
  } else if (base == TechnologyClass::kUseSpecificNonCryptoPpdm) {
    // Owner knows the supported analysis family (documented constant).
    eval.scores.user = 1.0 - kUseSpecificQueryVisibility;
  } else {
    TRIPRIV_ASSIGN_OR_RETURN(eval.scores.user, UserScoreWithPir(release, seed));
  }
  return eval;
}

Result<std::vector<TechnologyEvaluation>> PrivacyEvaluator::EvaluateAll() {
  std::vector<TechnologyEvaluation> out;
  out.reserve(kAllTechnologyClasses.size());
  for (TechnologyClass t : kAllTechnologyClasses) {
    TRIPRIV_ASSIGN_OR_RETURN(auto eval, Evaluate(t));
    out.push_back(eval);
  }
  return out;
}

std::string PrivacyEvaluator::FormatScoreboard(
    const std::vector<TechnologyEvaluation>& evals, bool with_claims) {
  std::ostringstream os;
  const size_t name_width = 36;
  const size_t cell_width = with_claims ? 34 : 12;
  os << std::string(name_width, ' ');
  for (Dimension d : kAllDimensions) {
    std::string header(DimensionToString(d));
    header.resize(cell_width, ' ');
    os << "  " << header;
  }
  os << '\n';
  for (const auto& eval : evals) {
    std::string name = TechnologyClassToString(eval.technology);
    name.resize(name_width, ' ');
    os << name;
    for (Dimension d : kAllDimensions) {
      std::string cell = GradeToString(eval.MeasuredGrade(d));
      if (with_claims) {
        cell += " (paper: ";
        cell += GradeToString(eval.ClaimedGrade(d));
        cell += ")";
      }
      cell.resize(cell_width, ' ');
      os << "  " << cell;
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace tripriv
