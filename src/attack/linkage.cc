#include "attack/linkage.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <functional>
#include <memory>
#include <unordered_map>

#include "attack/equivocation.h"
#include "sdc/risk.h"
#include "util/thread_pool.h"

namespace tripriv {
namespace attack {
namespace {

/// Blocked candidate index: masked rows bucketed on a per-column grid.
class MaskedGrid {
 public:
  MaskedGrid(const std::vector<std::vector<double>>& rel, size_t bins)
      : bins_(bins), dims_(rel.empty() ? 0 : rel[0].size()) {
    lo_.assign(dims_, std::numeric_limits<double>::infinity());
    cell_.assign(dims_, 1.0);
    std::vector<double> hi(dims_, -std::numeric_limits<double>::infinity());
    for (const auto& row : rel) {
      for (size_t j = 0; j < dims_; ++j) {
        lo_[j] = std::min(lo_[j], row[j]);
        hi[j] = std::max(hi[j], row[j]);
      }
    }
    for (size_t j = 0; j < dims_; ++j) {
      const double span = hi[j] - lo_[j];
      cell_[j] = span > 0.0 ? span / static_cast<double>(bins_) : 1.0;
    }
    // Row-order insertion keeps every cell's candidate list ascending.
    for (size_t i = 0; i < rel.size(); ++i) {
      cells_[Key(BinsOf(rel[i]))].push_back(i);
    }
  }

  /// Candidates within Chebyshev radius `radius` of `probe`'s cell, in
  /// ascending row order.
  std::vector<size_t> Gather(const std::vector<double>& probe,
                             size_t radius) const {
    const std::vector<int64_t> center = BinsOf(probe);
    std::vector<size_t> out;
    std::vector<int64_t> offset(dims_, -static_cast<int64_t>(radius));
    const int64_t r = static_cast<int64_t>(radius);
    // Odometer over the (2r+1)^d neighborhood.
    while (true) {
      std::vector<int64_t> cell(dims_);
      for (size_t j = 0; j < dims_; ++j) cell[j] = center[j] + offset[j];
      const auto it = cells_.find(Key(cell));
      if (it != cells_.end()) {
        out.insert(out.end(), it->second.begin(), it->second.end());
      }
      size_t j = 0;
      for (; j < dims_; ++j) {
        if (offset[j] < r) {
          ++offset[j];
          break;
        }
        offset[j] = -r;
      }
      if (j == dims_) break;
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  std::vector<int64_t> BinsOf(const std::vector<double>& row) const {
    std::vector<int64_t> bins(dims_);
    for (size_t j = 0; j < dims_; ++j) {
      int64_t b = static_cast<int64_t>(
          std::floor((row[j] - lo_[j]) / cell_[j]));
      if (b < 0) b = 0;
      if (b >= static_cast<int64_t>(bins_)) b = static_cast<int64_t>(bins_) - 1;
      bins[j] = b;
    }
    return bins;
  }

  /// Packs per-column bins into one key; bins_ <= 2^16 and dims <= 4 fit a
  /// 64-bit word, larger setups fold with a multiplier (still injective per
  /// run because bins share one range).
  uint64_t Key(const std::vector<int64_t>& bins) const {
    uint64_t key = 1469598103934665603ull;
    for (int64_t b : bins) {
      key ^= static_cast<uint64_t>(b + 1);
      key *= 1099511628211ull;
    }
    return key;
  }

  size_t bins_;
  size_t dims_;
  std::vector<double> lo_;
  std::vector<double> cell_;
  std::unordered_map<uint64_t, std::vector<size_t>> cells_;
};

struct LinkedRow {
  double credit = 0.0;       ///< 1/|ties| when the true row is among them
  size_t tie_count = 0;      ///< 0 = unlinkable (blocked mode gave up)
  double predicted = 0.0;    ///< tie-set mean of the confidential column
};

/// The shared linkage core: fills one LinkedRow per original row. The
/// confidential column may be empty (record-linkage mode).
Status LinkRows(const std::vector<std::vector<double>>& ext,
                const std::vector<std::vector<double>>& rel,
                const std::vector<double>& masked_conf,
                const LinkageConfig& config, ThreadPool* pool,
                std::vector<LinkedRow>* rows) {
  rows->assign(ext.size(), LinkedRow{});
  const MaskedGrid* grid = nullptr;
  std::unique_ptr<MaskedGrid> grid_storage;
  std::vector<size_t> all_rows;
  if (config.block_bins > 0) {
    grid_storage = std::make_unique<MaskedGrid>(rel, config.block_bins);
    grid = grid_storage.get();
  } else {
    all_rows.resize(rel.size());
    for (size_t j = 0; j < rel.size(); ++j) all_rows[j] = j;
  }

  // Pure fan-out: each index owns exactly its slot in `rows`.
  RunSharded(pool, ext.size(), [&](size_t /*shard*/, size_t begin,
                                   size_t end) {
    for (size_t i = begin; i < end; ++i) {
      std::vector<size_t> ties;
      if (grid != nullptr) {
        for (size_t radius = 0; radius <= config.max_radius; ++radius) {
          const std::vector<size_t> candidates = grid->Gather(ext[i], radius);
          if (!candidates.empty()) {
            ties = NearestTies(ext[i], rel, candidates);
            break;
          }
        }
      } else {
        ties = NearestTies(ext[i], rel, all_rows);
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
  return Status::OK();
}

Status ValidateInputs(const DataTable& original, const DataTable& masked,
                      const std::vector<size_t>& qi_cols) {
  if (original.num_rows() != masked.num_rows()) {
    return Status::InvalidArgument(
        "linkage attack requires aligned original and masked tables");
  }
  if (qi_cols.empty()) {
    return Status::InvalidArgument("no quasi-identifier columns given");
  }
  return Status::OK();
}

std::vector<size_t> ResolveQiCols(const DataTable& original,
                                  const LinkageConfig& config) {
  return config.qi_cols.empty() ? original.schema().QuasiIdentifierIndices()
                                : config.qi_cols;
}

}  // namespace

Result<AttackOutcome> RunRecordLinkageAttack(const DataTable& original,
                                             const DataTable& masked,
                                             const LinkageConfig& config,
                                             const AttackContext& ctx) {
  const std::vector<size_t> qi_cols = ResolveQiCols(original, config);
  TRIPRIV_RETURN_IF_ERROR(ValidateInputs(original, masked, qi_cols));
  TRIPRIV_ASSIGN_OR_RETURN(auto ext, original.NumericMatrix(qi_cols));
  TRIPRIV_ASSIGN_OR_RETURN(auto rel, masked.NumericMatrix(qi_cols));
  StandardizeJointly(&ext, &rel);

  std::vector<LinkedRow> rows;
  TRIPRIV_RETURN_IF_ERROR(
      LinkRows(ext, rel, {}, config, ctx.pool, &rows));

  // Serial index-order merge — the accumulation order of sdc/risk.h
  // DistanceLinkageAttack, so exact mode reproduces its expected_correct
  // bitwise.
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
  return FinishOutcome(std::move(outcome), ctx);
}

Result<AttackOutcome> RunAttributeDisclosureAttack(
    const DataTable& original, const DataTable& masked,
    const AttributeDisclosureConfig& config, const AttackContext& ctx) {
  const std::vector<size_t> qi_cols = ResolveQiCols(original, config.linkage);
  TRIPRIV_RETURN_IF_ERROR(ValidateInputs(original, masked, qi_cols));
  if (config.window_percent < 0.0 || config.window_percent > 100.0) {
    return Status::InvalidArgument("window must be in [0, 100] percent");
  }
  TRIPRIV_ASSIGN_OR_RETURN(auto ext, original.NumericMatrix(qi_cols));
  TRIPRIV_ASSIGN_OR_RETURN(auto rel, masked.NumericMatrix(qi_cols));
  TRIPRIV_ASSIGN_OR_RETURN(auto true_conf,
                           original.NumericColumn(config.confidential_col));
  TRIPRIV_ASSIGN_OR_RETURN(auto masked_conf,
                           masked.NumericColumn(config.confidential_col));
  StandardizeJointly(&ext, &rel);

  std::vector<LinkedRow> rows;
  TRIPRIV_RETURN_IF_ERROR(
      LinkRows(ext, rel, masked_conf, config.linkage, ctx.pool, &rows));

  // Window in original units (risk.h IntervalDisclosureRate semantics).
  const double range = true_conf.empty()
                           ? 0.0
                           : *std::max_element(true_conf.begin(),
                                               true_conf.end()) -
                                 *std::min_element(true_conf.begin(),
                                                   true_conf.end());
  const double window =
      config.window_percent / 100.0 * (range > 0.0 ? range : 1.0);

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
  outcome.note = "window=" + FormatFixed(config.window_percent) + "%";
  return FinishOutcome(std::move(outcome), ctx);
}

}  // namespace attack
}  // namespace tripriv
