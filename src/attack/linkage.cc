#include "attack/linkage.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "attack/equivocation.h"
#include "sdc/risk.h"
#include "util/thread_pool.h"

namespace tripriv {
namespace attack {
namespace {

/// Blocked candidate index over the released points: a grid of `bins`
/// cells per column spanning the release's range. A cell's key packs its
/// bins in mixed radix, sum_j bin_j * bins^j, which is exact: every stored
/// and every looked-up bin lies in [0, bins), and ValidateInputs refuses
/// grids whose cell count does not fit the key. The occupied cells are kept
/// in key order, each with its rows in one CSR array, ascending inside the
/// cell. The cells of a line (equal bins in columns 1..d-1) have
/// consecutive keys, so an open-addressing table maps each occupied line to
/// its first cell, and a neighbourhood is a walk over lines.
class CellIndex {
 public:
  /// What one shard reuses across its probes.
  struct Scratch {
    explicit Scratch(size_t dims)
        : center(dims), first(dims), last(dims), bin(dims) {}
    std::vector<int64_t> center, first, last, bin;
    std::vector<size_t> candidates;
  };

  CellIndex(const LinkagePoints& points, size_t bins)
      : bins_(static_cast<int64_t>(bins)), dims_(points.dims) {
    const size_t n = points.rows;
    lo_.assign(dims_, std::numeric_limits<double>::infinity());
    width_.assign(dims_, 1.0);
    std::vector<double> hi(dims_, -std::numeric_limits<double>::infinity());
    for (size_t i = 0; i < n; ++i) {
      const double* x = points.candidate(i);
      for (size_t j = 0; j < dims_; ++j) {
        lo_[j] = std::min(lo_[j], x[j]);
        hi[j] = std::max(hi[j], x[j]);
      }
    }
    stride_.assign(dims_, 1);
    for (size_t j = 0; j < dims_; ++j) {
      const double span = hi[j] - lo_[j];
      width_[j] = span > 0.0 ? span / static_cast<double>(bins) : 1.0;
      if (j > 0) stride_[j] = stride_[j - 1] * bins_;
    }

    // (key, row) pairs in key order, rows ascending within a key.
    std::vector<std::pair<int64_t, size_t>> keyed(n);
    for (size_t i = 0; i < n; ++i) {
      const double* x = points.candidate(i);
      int64_t key = 0;
      for (size_t j = 0; j < dims_; ++j) key += BinOf(x[j], j) * stride_[j];
      keyed[i] = {key, i};
    }
    std::sort(keyed.begin(), keyed.end());
    members_.resize(n);
    for (size_t p = 0; p < n; ++p) {
      if (p == 0 || keyed[p].first != keyed[p - 1].first) {
        cell_key_.push_back(keyed[p].first);
        cell_begin_.push_back(p);
      }
      members_[p] = keyed[p].second;
    }
    const size_t cells = cell_key_.size();
    cell_begin_.push_back(n);
    cell_key_.push_back(kNoKey);  // ends the last line's scan

    std::vector<size_t> line_starts;  // each occupied line's first cell
    for (size_t c = 0; c < cells; ++c) {
      if (c == 0 || LineOf(cell_key_[c]) != LineOf(cell_key_[c - 1])) {
        line_starts.push_back(c);
      }
    }
    size_t capacity = 2;
    while (capacity < 2 * line_starts.size()) capacity <<= 1;
    shift_ = 64 - std::countr_zero(capacity);
    slots_.assign(capacity, Slot{kNoKey, 0});
    for (size_t c : line_starts) {
      const int64_t line = LineOf(cell_key_[c]);
      size_t slot = Hash(line);
      while (slots_[slot].line != kNoKey) slot = (slot + 1) & (capacity - 1);
      slots_[slot] = Slot{line, c};
    }
  }

  /// Fills scratch->candidates with the rows of the first non-empty
  /// neighbourhood of `probe`'s cell, widening the Chebyshev radius 0, 1,
  /// ..., max_radius, in cell order (ascending within a cell, not across
  /// cells); empty when every neighbourhood up to max_radius is.
  void Gather(const double* probe, size_t max_radius, Scratch* s) const {
    s->candidates.clear();
    for (size_t j = 0; j < dims_; ++j) s->center[j] = BinOf(probe[j], j);
    for (size_t radius = 0; radius <= max_radius; ++radius) {
      const int64_t r = static_cast<int64_t>(radius);
      // The neighbourhood clipped to the grid: no cell outside [0, bins)^d
      // is looked up, since none holds a row.
      for (size_t j = 0; j < dims_; ++j) {
        s->first[j] = std::max<int64_t>(s->center[j] - r, 0);
        s->last[j] = std::min<int64_t>(s->center[j] + r, bins_ - 1);
        s->bin[j] = s->first[j];
      }
      // Only the ring at distance exactly r is visited: the cells inside it
      // were looked up at smaller radii and are empty. A line whose outer
      // bins lie on the ring contributes every cell in [first0, last0];
      // any other line only its two cells at bin 0 = center0 -+ r.
      while (true) {
        bool on_ring = r == 0;
        int64_t line = 0;
        for (size_t j = 1; j < dims_; ++j) {
          line += s->bin[j] * stride_[j - 1];
          on_ring |= s->bin[j] - s->center[j] == r ||
                     s->center[j] - s->bin[j] == r;
        }
        const size_t first_cell = FindLine(line);
        if (first_cell != kNoCell) {
          const int64_t line_key = line * bins_;
          const int64_t lo = line_key + s->first[0];
          const int64_t hi = line_key + s->last[0];
          const int64_t left = line_key + s->center[0] - r;
          const int64_t right = line_key + s->center[0] + r;
          for (size_t c = first_cell; cell_key_[c] <= hi; ++c) {
            const int64_t key = cell_key_[c];
            if (key < lo || (!on_ring && key != left && key != right)) {
              continue;
            }
            s->candidates.insert(s->candidates.end(),
                                 members_.begin() + cell_begin_[c],
                                 members_.begin() + cell_begin_[c + 1]);
          }
        }
        size_t j = 1;
        for (; j < dims_; ++j) {
          if (s->bin[j] < s->last[j]) {
            ++s->bin[j];
            break;
          }
          s->bin[j] = s->first[j];
        }
        if (j >= dims_) break;
      }
      if (!s->candidates.empty()) return;
    }
  }

 private:
  static constexpr int64_t kNoKey = INT64_MAX;
  static constexpr size_t kNoCell = SIZE_MAX;

  struct Slot {
    int64_t line;       ///< the line's keys / bins; kNoKey = empty slot
    size_t first_cell;  ///< the line's lowest-key cell
  };

  /// The column-j bin of `x`, clamped into [0, bins).
  int64_t BinOf(double x, size_t j) const {
    const double b = std::floor((x - lo_[j]) / width_[j]);
    if (!(b >= 0.0)) return 0;
    if (b >= static_cast<double>(bins_)) return bins_ - 1;
    return static_cast<int64_t>(b);
  }

  int64_t LineOf(int64_t key) const { return key / bins_; }

  size_t Hash(int64_t line) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(line) * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// The first cell of `line`, or kNoCell when no row lies on it.
  size_t FindLine(int64_t line) const {
    const size_t mask = slots_.size() - 1;
    for (size_t slot = Hash(line);; slot = (slot + 1) & mask) {
      if (slots_[slot].line == line) return slots_[slot].first_cell;
      if (slots_[slot].line == kNoKey) return kNoCell;
    }
  }

  int64_t bins_;
  size_t dims_;
  std::vector<double> lo_;
  std::vector<double> width_;
  std::vector<int64_t> stride_;     ///< bins^j
  std::vector<int64_t> cell_key_;   ///< occupied cells in key order
  std::vector<size_t> cell_begin_;  ///< cell c: members_[begin[c], begin[c+1])
  std::vector<size_t> members_;     ///< released rows grouped by cell
  int shift_ = 63;
  std::vector<Slot> slots_;
};

struct LinkedRow {
  double credit = 0.0;       ///< 1/|ties| when the true row is among them
  size_t tie_count = 0;      ///< 0 = unlinkable (blocked mode gave up)
  double predicted = 0.0;    ///< tie-set mean of the confidential column
};

/// The one linkage pass every entry point folds its outcomes from: fills
/// one LinkedRow per original row. The confidential column may be empty
/// (record linkage only; `predicted` stays 0).
void LinkRows(const LinkagePoints& points,
              const std::vector<double>& masked_conf,
              const LinkageConfig& config, ThreadPool* pool,
              std::vector<LinkedRow>* rows) {
  rows->assign(points.rows, LinkedRow{});
  std::optional<CellIndex> index;
  std::vector<size_t> all_rows;
  if (config.block_bins > 0) {
    index.emplace(points, config.block_bins);
  } else {
    all_rows.resize(points.rows);
    std::iota(all_rows.begin(), all_rows.end(), size_t{0});
  }

  // Pure fan-out: each index owns exactly its slot in `rows`; each shard
  // owns its scratch.
  RunSharded(pool, points.rows, [&](size_t /*shard*/, size_t begin,
                                    size_t end) {
    CellIndex::Scratch scratch(points.dims);
    TieBandScratch band;
    std::vector<size_t> ties;
    for (size_t i = begin; i < end; ++i) {
      const double* probe = points.probe(i);
      if (index) {
        index->Gather(probe, config.max_radius, &scratch);
        NearestTiesInBand(points, probe, scratch.candidates, &band, &ties);
      } else {
        NearestTies(points, probe, all_rows, &ties);
      }
      LinkedRow& out = (*rows)[i];
      out.tie_count = ties.size();
      for (size_t j : ties) {
        if (j == i) {
          out.credit = 1.0 / static_cast<double>(ties.size());
          break;
        }
      }
      if (!masked_conf.empty() && !ties.empty()) {
        double sum = 0.0;
        for (size_t j : ties) sum += masked_conf[j];
        out.predicted = sum / static_cast<double>(ties.size());
      }
    }
  });
}

/// True when column `col` exists in both tables.
bool InBoth(const DataTable& original, const DataTable& masked, size_t col) {
  return col < original.num_columns() && col < masked.num_columns();
}

/// Every check RunRecordLinkageAttack makes before it reads a column.
Status ValidateInputs(const DataTable& original, const DataTable& masked,
                      const std::vector<size_t>& qi_cols, size_t block_bins) {
  if (original.num_rows() != masked.num_rows()) {
    return Status::InvalidArgument(
        "linkage attack requires aligned original and masked tables");
  }
  if (qi_cols.empty()) {
    return Status::InvalidArgument("no quasi-identifier columns given");
  }
  // CellIndex packs a cell's bins into one signed 64-bit key.
  uint64_t cells = 1;
  for (size_t j = 0; j < qi_cols.size() && block_bins > 0; ++j) {
    if (cells > static_cast<uint64_t>(INT64_MAX) / block_bins) {
      return Status::InvalidArgument(
          "block_bins^|qi_cols| grid cells overflow the 64-bit cell key");
    }
    cells *= block_bins;
  }
  for (size_t col : qi_cols) {
    if (!InBoth(original, masked, col)) {
      return Status::InvalidArgument("quasi-identifier column out of range");
    }
  }
  return Status::OK();
}

/// The checks RunAttributeDisclosureAttack adds to ValidateInputs, before
/// it reads a column.
Status ValidateDisclosure(const DataTable& original, const DataTable& masked,
                          const AttributeDisclosureConfig& config) {
  if (!InBoth(original, masked, config.confidential_col)) {
    return Status::InvalidArgument("confidential column out of range");
  }
  if (!(config.window_percent >= 0.0 && config.window_percent <= 100.0)) {
    return Status::InvalidArgument("window must be in [0, 100] percent");
  }
  return Status::OK();
}

std::vector<size_t> ResolveQiCols(const DataTable& original,
                                  const LinkageConfig& config) {
  return config.qi_cols.empty() ? original.schema().QuasiIdentifierIndices()
                                : config.qi_cols;
}

/// The confidential column of both tables.
struct ConfidentialColumns {
  std::vector<double> truth;     ///< the original's: what success is scored on
  std::vector<double> released;  ///< the release's: what a tie set averages
};

Result<ConfidentialColumns> ReadConfidential(const DataTable& original,
                                             const DataTable& masked,
                                             size_t col) {
  ConfidentialColumns conf;
  TRIPRIV_ASSIGN_OR_RETURN(conf.truth, original.NumericColumn(col));
  TRIPRIV_ASSIGN_OR_RETURN(conf.released, masked.NumericColumn(col));
  return conf;
}

/// Serial index-order merge — the accumulation order of sdc/risk.h
/// DistanceLinkageAttack, so exact mode reproduces its expected_correct
/// bitwise.
AttackOutcome RecordLinkageOutcome(const std::vector<LinkedRow>& rows,
                                   const LinkageConfig& config) {
  AttackOutcome outcome;
  outcome.attack = "record_linkage";
  outcome.dimension = Dimension::kRespondent;
  outcome.trials = rows.size();
  outcome.records_total = rows.size();
  std::vector<size_t> tie_counts;
  tie_counts.reserve(rows.size());
  for (const LinkedRow& row : rows) {
    outcome.successes += row.credit;
    // An unlinkable row leaves the adversary at the full-table prior.
    tie_counts.push_back(row.tie_count > 0 ? row.tie_count : rows.size());
  }
  outcome.records_recovered = outcome.successes;
  outcome.equivocation_bits = MeanCandidateBits(tie_counts);
  outcome.prior_bits = UniformBits(rows.size());
  outcome.note = config.block_bins == 0
                     ? "exact"
                     : "blocked bins=" + std::to_string(config.block_bins);
  return outcome;
}

AttackOutcome DisclosureOutcome(const std::vector<LinkedRow>& rows,
                                const std::vector<double>& true_conf,
                                double window_percent) {
  // Window in original units (risk.h IntervalDisclosureRate semantics).
  const double range = true_conf.empty()
                           ? 0.0
                           : *std::max_element(true_conf.begin(),
                                               true_conf.end()) -
                                 *std::min_element(true_conf.begin(),
                                                   true_conf.end());
  const double window = window_percent / 100.0 * (range > 0.0 ? range : 1.0);

  AttackOutcome outcome;
  outcome.attack = "attribute_disclosure";
  outcome.dimension = Dimension::kRespondent;
  outcome.trials = rows.size();
  outcome.records_total = rows.size();
  std::vector<size_t> tie_counts;
  tie_counts.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].tie_count > 0 &&
        std::fabs(rows[i].predicted - true_conf[i]) <= window) {
      outcome.successes += 1.0;
    }
    tie_counts.push_back(rows[i].tie_count > 0 ? rows[i].tie_count
                                               : rows.size());
  }
  outcome.records_recovered = outcome.successes;
  outcome.equivocation_bits = MeanCandidateBits(tie_counts);
  outcome.prior_bits = UniformBits(rows.size());
  outcome.note = "window=" + FormatFixed(window_percent) + "%";
  return outcome;
}

}  // namespace

Result<AttackOutcome> RunRecordLinkageAttack(const DataTable& original,
                                             const DataTable& masked,
                                             const LinkageConfig& config,
                                             const AttackContext& ctx) {
  const std::vector<size_t> qi_cols = ResolveQiCols(original, config);
  TRIPRIV_RETURN_IF_ERROR(
      ValidateInputs(original, masked, qi_cols, config.block_bins));
  TRIPRIV_ASSIGN_OR_RETURN(
      const LinkagePoints points,
      StandardizedLinkagePoints(original, masked, qi_cols));
  std::vector<LinkedRow> rows;
  LinkRows(points, {}, config, ctx.pool, &rows);
  return FinishOutcome(RecordLinkageOutcome(rows, config), ctx);
}

Result<AttackOutcome> RunAttributeDisclosureAttack(
    const DataTable& original, const DataTable& masked,
    const AttributeDisclosureConfig& config, const AttackContext& ctx) {
  const std::vector<size_t> qi_cols = ResolveQiCols(original, config.linkage);
  TRIPRIV_RETURN_IF_ERROR(ValidateInputs(original, masked, qi_cols,
                                         config.linkage.block_bins));
  TRIPRIV_RETURN_IF_ERROR(ValidateDisclosure(original, masked, config));
  TRIPRIV_ASSIGN_OR_RETURN(
      const LinkagePoints points,
      StandardizedLinkagePoints(original, masked, qi_cols));
  TRIPRIV_ASSIGN_OR_RETURN(
      const ConfidentialColumns conf,
      ReadConfidential(original, masked, config.confidential_col));
  std::vector<LinkedRow> rows;
  LinkRows(points, conf.released, config.linkage, ctx.pool, &rows);
  return FinishOutcome(
      DisclosureOutcome(rows, conf.truth, config.window_percent), ctx);
}

Result<LinkageAttacks> RunLinkageAttacks(
    const DataTable& original, const DataTable& masked,
    const AttributeDisclosureConfig& config, const AttackContext& ctx) {
  const std::vector<size_t> qi_cols = ResolveQiCols(original, config.linkage);
  TRIPRIV_RETURN_IF_ERROR(ValidateInputs(original, masked, qi_cols,
                                         config.linkage.block_bins));
  TRIPRIV_ASSIGN_OR_RETURN(
      const LinkagePoints points,
      StandardizedLinkagePoints(original, masked, qi_cols));
  // What RunAttributeDisclosureAttack would refuse once the record linkage
  // had run: the linkage outcome is still published before that error.
  Status disclosure = ValidateDisclosure(original, masked, config);
  ConfidentialColumns conf;
  if (disclosure.ok()) {
    Result<ConfidentialColumns> read =
        ReadConfidential(original, masked, config.confidential_col);
    if (read.ok()) {
      conf = std::move(read).value();
    } else {
      disclosure = read.status();
    }
  }
  std::vector<LinkedRow> rows;
  LinkRows(points, conf.released, config.linkage, ctx.pool, &rows);
  LinkageAttacks out;
  out.record_linkage =
      FinishOutcome(RecordLinkageOutcome(rows, config.linkage), ctx);
  TRIPRIV_RETURN_IF_ERROR(disclosure);
  out.attribute_disclosure = FinishOutcome(
      DisclosureOutcome(rows, conf.truth, config.window_percent), ctx);
  return out;
}

}  // namespace attack
}  // namespace tripriv
