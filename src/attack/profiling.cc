#include "attack/profiling.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <unordered_map>

#include "attack/equivocation.h"
#include "pir/it_pir.h"
#include "util/random.h"

namespace tripriv {
namespace attack {
namespace {

/// Per-principal profiling result, filled by one fan-out index.
struct PrincipalScore {
  uint64_t trials = 0;
  double credit = 0.0;
  double bits = 0.0;  ///< summed posterior bits over this principal's tests
};

}  // namespace

std::string UserProfile::TopInterest() const {
  std::string best;
  size_t best_count = 0;
  for (const auto& [attr, count] : attribute_interest) {
    if (count > best_count) {
      best = attr;
      best_count = count;
    }
  }
  return best;
}

std::string UserProfile::ToString() const {
  std::ostringstream os;
  os << queries << " queries, " << distinct_predicates
     << " distinct predicates; interests:";
  for (const auto& [attr, count] : attribute_interest) {
    os << " " << attr << "(" << count << ")";
  }
  return os.str();
}

UserProfile ProfileQueryLog(const std::vector<StatQuery>& log) {
  UserProfile profile;
  profile.queries = log.size();
  std::set<std::string> predicates;
  for (const auto& query : log) {
    profile.function_use[AggregateFnToString(query.fn)]++;
    for (const auto& attr : query.where.ReferencedAttributes()) {
      profile.attribute_interest[attr]++;
    }
    predicates.insert(query.where.ToString());
  }
  profile.distinct_predicates = predicates.size();
  return profile;
}

double QueryLogVisibility(const std::vector<StatQuery>& log) {
  if (log.empty()) return 0.0;
  size_t with_predicates = 0;
  for (const auto& query : log) {
    if (!query.where.ReferencedAttributes().empty()) ++with_predicates;
  }
  return static_cast<double>(with_predicates) / static_cast<double>(log.size());
}

Result<AttackOutcome> RunQueryLogProfilingAttack(
    const std::vector<traffic::AccessEvent>& trail,
    const ProfilingConfig& config, const AttackContext& ctx) {
  if (trail.empty()) {
    return Status::InvalidArgument("profiling attack needs a non-empty trail");
  }

  // Serial gather: key universe and per-principal key sequences, both in
  // first-appearance order so downstream loops are order-deterministic.
  std::unordered_map<uint64_t, size_t> key_ids;
  std::unordered_map<uint64_t, size_t> principal_ids;
  std::vector<std::vector<size_t>> sequences;  // dense principal -> key ids
  for (const traffic::AccessEvent& event : trail) {
    const auto [kit, key_inserted] =
        key_ids.emplace(event.query_key, key_ids.size());
    (void)key_inserted;
    const auto [pit, principal_inserted] =
        principal_ids.emplace(event.principal, sequences.size());
    if (principal_inserted) sequences.emplace_back();
    sequences[pit->second].push_back(kit->second);
  }
  const size_t num_keys = key_ids.size();
  const double prior_bits = UniformBits(num_keys);

  // Pure fan-out: each principal owns its score slot. Unblinded, the log
  // shows every event's key, so each event is attributed exactly (the
  // profile is the log); blinded, every event scores as the exact expected
  // credit of a uniform guess over the key universe.
  std::vector<PrincipalScore> scores(sequences.size());
  RunSharded(ctx.pool, sequences.size(),
             [&](size_t /*shard*/, size_t begin, size_t end) {
               for (size_t p = begin; p < end; ++p) {
                 const std::vector<size_t>& keys = sequences[p];
                 PrincipalScore& score = scores[p];
                 score.trials = keys.size();
                 if (config.pir_blinded) {
                   score.credit = num_keys > 0
                                      ? static_cast<double>(keys.size()) /
                                            static_cast<double>(num_keys)
                                      : 0.0;
                   score.bits = static_cast<double>(keys.size()) * prior_bits;
                 } else {
                   score.credit = static_cast<double>(keys.size());
                   score.bits = 0.0;
                 }
               }
             });

  // Serial merge in dense-principal order.
  AttackOutcome outcome;
  outcome.attack = config.pir_blinded ? "query_log_profiling_blinded"
                                      : "query_log_profiling";
  outcome.dimension = Dimension::kUser;
  double bits = 0.0;
  for (const PrincipalScore& score : scores) {
    outcome.trials += score.trials;
    outcome.successes += score.credit;
    bits += score.bits;
  }
  outcome.records_recovered = outcome.successes;
  outcome.records_total = outcome.trials;
  outcome.equivocation_bits =
      outcome.trials == 0 ? 0.0 : bits / static_cast<double>(outcome.trials);
  outcome.prior_bits = prior_bits;
  outcome.note = std::to_string(sequences.size()) + " principals, " +
                 std::to_string(num_keys) + " keys";
  return FinishOutcome(std::move(outcome), ctx);
}

Result<AttackOutcome> RunSelectionViewGuessingAttack(
    const SelectionViewConfig& config, const AttackContext& ctx) {
  if (config.num_records < 2 || config.record_size == 0 ||
      config.trials == 0) {
    return Status::InvalidArgument(
        "selection-view game needs >= 2 records, bytes, and trials");
  }

  // A real replica with a deterministic record payload.
  std::vector<std::vector<uint8_t>> records(config.num_records);
  for (size_t i = 0; i < config.num_records; ++i) {
    records[i].assign(config.record_size,
                      static_cast<uint8_t>((i * 131) & 0xff));
  }
  TRIPRIV_ASSIGN_OR_RETURN(XorPirServer server,
                           XorPirServer::Create(std::move(records)));
  server.EnableObservationLog(config.trials);

  // Serial draw: per-trial targets and the client's selection randomness.
  Rng rng(ctx.seed);
  std::vector<size_t> targets(config.trials);
  for (size_t t = 0; t < config.trials; ++t) {
    targets[t] = static_cast<size_t>(rng.UniformU64(config.num_records));
    if (config.pir) {
      // 1-of-2 XOR PIR: this replica receives the uniform bitmap (its
      // pair would receive the same bitmap with the target bit flipped).
      std::vector<uint8_t> selection =
          RandomSelectionBits(config.num_records, &rng);
      TRIPRIV_RETURN_IF_ERROR(server.Answer(selection, ctx.pool).status());
    } else {
      // No PIR: a direct read; the owner's log is the index itself. Model
      // the log as a one-hot "selection" so both modes flow through the
      // same observation machinery.
      std::vector<uint8_t> selection((config.num_records + 7) / 8, 0);
      FlipSelectionBit(&selection, targets[t]);
      TRIPRIV_RETURN_IF_ERROR(server.Answer(selection, ctx.pool).status());
    }
  }

  // The adversary reads the observation log and guesses each trial's
  // target with a fixed Bayes-consistent rule: the lowest observed set bit
  // (under PIR the posterior is uniform — any deterministic rule has the
  // same expected success; without PIR the one-hot bit IS the target).
  AttackOutcome outcome;
  outcome.attack = config.pir ? "selection_view_guessing_pir"
                              : "selection_view_guessing_direct";
  outcome.dimension = Dimension::kUser;
  outcome.trials = config.trials;
  outcome.records_total = config.trials;
  std::vector<uint8_t> correct(config.trials, 0);
  RunSharded(ctx.pool, config.trials,
             [&](size_t /*shard*/, size_t begin, size_t end) {
               for (size_t t = begin; t < end; ++t) {
                 const std::vector<uint8_t>& view = server.observed_query(t);
                 size_t guess = 0;
                 for (size_t i = 0; i < config.num_records; ++i) {
                   if ((view[i / 8] >> (i % 8)) & 1u) {
                     guess = i;
                     break;
                   }
                 }
                 correct[t] = guess == targets[t];
               }
             });
  for (size_t t = 0; t < config.trials; ++t) outcome.successes += correct[t];
  outcome.records_recovered = outcome.successes;
  // Posterior: uniform over records under PIR, pinned without.
  outcome.equivocation_bits = config.pir ? UniformBits(config.num_records) : 0.0;
  outcome.prior_bits = UniformBits(config.num_records);
  outcome.note = std::to_string(config.num_records) + " records";
  return FinishOutcome(std::move(outcome), ctx);
}

}  // namespace attack
}  // namespace tripriv
