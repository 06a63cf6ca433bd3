#include "attack/fingerprint.h"

#include <algorithm>
#include <cmath>

#include "attack/equivocation.h"
#include "table/schema.h"
#include "util/checksum.h"
#include "util/random.h"

namespace tripriv {
namespace attack {
namespace {

/// FNV over a fixed-width little-endian tuple, then a 64-bit finalizer —
/// the codeword PRF. Not cryptographic (like every checksum in this tree),
/// but key-dependent and uniform in every bit. The finalizer matters: raw
/// FNV-1a's low bit is the parity of the input bytes' low bits (odd-prime
/// multiplication never changes bit 0), which would give same-parity
/// recipients identical codewords.
uint64_t TupleHash(uint64_t a, uint64_t b, uint64_t c) {
  uint8_t bytes[24];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<uint8_t>(a >> (8 * i));
    bytes[8 + i] = static_cast<uint8_t>(b >> (8 * i));
    bytes[16 + i] = static_cast<uint8_t>(c >> (8 * i));
  }
  uint64_t h = Fnv1a64(bytes, sizeof(bytes));
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ull;
  h ^= h >> 33;
  return h;
}

}  // namespace

Result<FingerprintCodec> FingerprintCodec::Create(
    const DataTable& base, const FingerprintConfig& config) {
  if (config.marks == 0) {
    return Status::InvalidArgument("fingerprint needs at least one mark");
  }
  if (config.num_recipients == 0) {
    return Status::InvalidArgument("fingerprint needs recipients");
  }
  if (base.num_rows() == 0) {
    return Status::InvalidArgument("cannot fingerprint an empty table");
  }
  std::vector<size_t> columns = config.columns;
  if (columns.empty()) {
    for (size_t c = 0; c < base.schema().size(); ++c) {
      if (base.schema().attribute(c).type == AttributeType::kInteger) {
        columns.push_back(c);
      }
    }
  } else {
    for (size_t c : columns) {
      if (c >= base.schema().size() ||
          base.schema().attribute(c).type != AttributeType::kInteger) {
        return Status::InvalidArgument(
            "fingerprint columns must be integer schema columns");
      }
    }
  }
  if (columns.empty()) {
    return Status::InvalidArgument("no integer columns to fingerprint");
  }
  const uint64_t capacity = base.num_rows() * columns.size();
  if (config.marks > capacity) {
    return Status::InvalidArgument("more marks than embeddable cells");
  }

  FingerprintCodec codec;
  codec.config_ = config;
  codec.config_.columns = columns;

  // Serial draw: distinct mark positions from the key-seeded stream.
  Rng rng(config.owner_key);
  std::vector<size_t> cell_ids =
      rng.SampleWithoutReplacement(capacity, config.marks);
  codec.positions_.reserve(config.marks);
  for (size_t id : cell_ids) {
    MarkCell mark;
    mark.row = id / columns.size();
    mark.col = columns[id % columns.size()];
    const Value& cell = base.at(mark.row, mark.col);
    if (cell.is_null()) {
      // Nulls cannot carry a bit; remap deterministically by linear probe
      // over cell ids (rare in our synthetic tables; keeps marks distinct
      // because probed ids wrap a fixed sequence).
      size_t probe = (id + 1) % capacity;
      while (probe != id) {
        const size_t row = probe / columns.size();
        const size_t col = columns[probe % columns.size()];
        if (!base.at(row, col).is_null()) {
          mark.row = row;
          mark.col = col;
          break;
        }
        probe = (probe + 1) % capacity;
      }
      if (probe == id) {
        return Status::InvalidArgument("all embeddable cells are null");
      }
    }
    mark.value = base.at(mark.row, mark.col).AsInt();
    codec.positions_.push_back(mark);
  }
  return codec;
}

uint8_t FingerprintCodec::CodewordBit(uint32_t recipient, size_t m) const {
  return static_cast<uint8_t>(
      TupleHash(config_.owner_key, recipient, m) & 1u);
}

Result<FingerprintedCopy> FingerprintCodec::Release(uint32_t recipient) const {
  if (recipient >= config_.num_recipients) {
    return Status::InvalidArgument("unknown fingerprint recipient");
  }
  FingerprintedCopy copy;
  copy.recipient = recipient;
  copy.mark_cells.reserve(positions_.size());
  for (size_t m = 0; m < positions_.size(); ++m) {
    MarkCell cell = positions_[m];
    cell.value = (cell.value & ~int64_t{1}) |
                 static_cast<int64_t>(CodewordBit(recipient, m));
    copy.mark_cells.push_back(cell);
  }
  return copy;
}

Result<Detection> FingerprintCodec::Detect(const FingerprintedCopy& suspect,
                                           ThreadPool* pool) const {
  if (suspect.mark_cells.size() != positions_.size()) {
    return Status::InvalidArgument(
        "suspect overlay does not match the codec's mark count");
  }
  for (size_t m = 0; m < positions_.size(); ++m) {
    if (suspect.mark_cells[m].row != positions_[m].row ||
        suspect.mark_cells[m].col != positions_[m].col) {
      return Status::InvalidArgument(
          "suspect overlay cells are not in mark order");
    }
  }

  // Parallel-pure: each recipient owns its score slot; the correlation
  // reads only shared immutable state.
  const size_t num_recipients = config_.num_recipients;
  std::vector<int64_t> scores(num_recipients, 0);
  RunSharded(pool, num_recipients,
             [&](size_t /*shard*/, size_t begin, size_t end) {
               for (size_t r = begin; r < end; ++r) {
                 int64_t score = 0;
                 for (size_t m = 0; m < positions_.size(); ++m) {
                   const uint8_t seen =
                       static_cast<uint8_t>(suspect.mark_cells[m].value & 1);
                   score += seen == CodewordBit(static_cast<uint32_t>(r), m)
                                ? 1
                                : -1;
                 }
                 scores[r] = score;
               }
             });

  // Serial merge: argmax |score| in recipient order (first wins ties).
  Detection detection;
  detection.threshold =
      config_.threshold_sigma *
      std::sqrt(static_cast<double>(positions_.size()));
  int64_t best = -1;
  for (size_t r = 0; r < num_recipients; ++r) {
    const int64_t magnitude = scores[r] < 0 ? -scores[r] : scores[r];
    if (magnitude > best) {
      best = magnitude;
      detection.recipient = static_cast<uint32_t>(r);
    }
  }
  detection.score = static_cast<double>(best);
  detection.accused = detection.score > detection.threshold;
  return detection;
}

Result<FingerprintedCopy> Collude(
    const std::vector<FingerprintedCopy>& coalition,
    CollusionStrategy strategy, uint64_t seed) {
  if (coalition.empty()) {
    return Status::InvalidArgument("collusion needs at least one copy");
  }
  const size_t marks = coalition[0].mark_cells.size();
  for (const FingerprintedCopy& copy : coalition) {
    if (copy.mark_cells.size() != marks) {
      return Status::InvalidArgument("coalition copies disagree on marks");
    }
  }

  // Serial draw: one random word per mark, whatever the strategy, so the
  // leaked copy depends only on (coalition, strategy, seed).
  Rng rng(seed);
  FingerprintedCopy leaked;
  leaked.recipient = coalition[0].recipient;
  leaked.mark_cells.reserve(marks);
  for (size_t m = 0; m < marks; ++m) {
    const uint64_t draw = rng.NextU64();
    size_t ones = 0;
    for (const FingerprintedCopy& copy : coalition) {
      ones += static_cast<size_t>(copy.mark_cells[m].value & 1);
    }
    const size_t zeros = coalition.size() - ones;
    uint8_t bit = 0;
    switch (strategy) {
      case CollusionStrategy::kMajority:
        bit = ones != zeros ? ones > zeros : (draw & 1u);
        break;
      case CollusionStrategy::kMinority:
        bit = ones != zeros ? ones < zeros : (draw & 1u);
        break;
      case CollusionStrategy::kRandom:
        bit = static_cast<uint8_t>(
            coalition[draw % coalition.size()].mark_cells[m].value & 1);
        break;
    }
    MarkCell cell = coalition[0].mark_cells[m];
    cell.value = (cell.value & ~int64_t{1}) | static_cast<int64_t>(bit);
    leaked.mark_cells.push_back(cell);
  }
  return leaked;
}

void FlipAttack(FingerprintedCopy* copy, double fraction, uint64_t seed) {
  Rng rng(seed);
  for (MarkCell& cell : copy->mark_cells) {
    if (rng.Bernoulli(fraction)) cell.value ^= 1;
  }
}

Result<AttackOutcome> RunCollusionAttack(const DataTable& base,
                                         const CollusionAttackConfig& config,
                                         const AttackContext& ctx) {
  if (config.colluders == 0 ||
      config.colluders > config.codec.num_recipients) {
    return Status::InvalidArgument("colluders must be in [1, recipients]");
  }
  if (config.trials == 0) {
    return Status::InvalidArgument("collusion attack needs trials");
  }
  if (!(0.0 <= config.flip_fraction && config.flip_fraction <= 1.0)) {
    return Status::InvalidArgument("flip fraction must be in [0, 1]");
  }
  TRIPRIV_ASSIGN_OR_RETURN(FingerprintCodec codec,
                           FingerprintCodec::Create(base, config.codec));

  // Serial draws: coalition members and per-trial seeds all come from one
  // seeded stream before any detection runs.
  Rng rng(ctx.seed);
  struct Trial {
    std::vector<size_t> members;
    uint64_t collude_seed = 0;
    uint64_t flip_seed = 0;
  };
  std::vector<Trial> trials(config.trials);
  for (Trial& trial : trials) {
    trial.members = rng.SampleWithoutReplacement(config.codec.num_recipients,
                                                 config.colluders);
    std::sort(trial.members.begin(), trial.members.end());
    trial.collude_seed = rng.NextU64();
    trial.flip_seed = rng.NextU64();
  }

  AttackOutcome outcome;
  outcome.attack = config.strategy == CollusionStrategy::kMajority
                       ? "fingerprint_majority_collusion"
                       : config.strategy == CollusionStrategy::kMinority
                             ? "fingerprint_minority_collusion"
                             : "fingerprint_random_collusion";
  outcome.dimension = Dimension::kOwner;
  outcome.trials = config.trials;
  outcome.records_total = config.trials;
  std::vector<double> posteriors;  // per-trial owner equivocation
  posteriors.reserve(config.trials);

  // Trials run serially (Detect parallelizes internally; no nesting).
  for (const Trial& trial : trials) {
    std::vector<FingerprintedCopy> coalition;
    coalition.reserve(trial.members.size());
    for (size_t member : trial.members) {
      TRIPRIV_ASSIGN_OR_RETURN(
          FingerprintedCopy copy,
          codec.Release(static_cast<uint32_t>(member)));
      coalition.push_back(std::move(copy));
    }
    TRIPRIV_ASSIGN_OR_RETURN(
        FingerprintedCopy leaked,
        Collude(coalition, config.strategy, trial.collude_seed));
    if (config.flip_fraction > 0.0) {
      FlipAttack(&leaked, config.flip_fraction, trial.flip_seed);
    }
    TRIPRIV_ASSIGN_OR_RETURN(Detection detection,
                             codec.Detect(leaked, ctx.pool));
    const bool caught =
        detection.accused &&
        std::binary_search(trial.members.begin(), trial.members.end(),
                           static_cast<size_t>(detection.recipient));
    if (!caught) {
      // The adversary wins: untraced, or an innocent was framed.
      outcome.successes += 1.0;
      outcome.records_recovered += 1.0;
    }
    posteriors.push_back(caught ? 0.0
                                : UniformBits(config.codec.num_recipients));
  }

  double bits = 0.0;
  for (double b : posteriors) bits += b;
  outcome.equivocation_bits =
      posteriors.empty() ? 0.0 : bits / static_cast<double>(posteriors.size());
  outcome.prior_bits = UniformBits(config.codec.num_recipients);
  outcome.note = std::to_string(config.colluders) + " colluders, flip=" +
                 FormatFixed(config.flip_fraction);
  return FinishOutcome(std::move(outcome), ctx);
}

}  // namespace attack
}  // namespace tripriv
