#include "attack/nussbaum.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <unordered_map>

#include "attack/equivocation.h"

namespace tripriv {
namespace attack {
namespace {

/// Sliding-window minima (or maxima) of `values` over windows of size `w`:
/// out[p] = min(values[p .. p+w-1]) for p in [0, n-w]. Monotonic deque,
/// O(n), serial — the draw stage of both attacks.
std::vector<double> SlidingExtreme(const std::vector<double>& values, size_t w,
                                   bool want_min) {
  std::vector<double> out;
  if (w == 0 || values.size() < w) return out;
  out.reserve(values.size() - w + 1);
  std::deque<size_t> deq;  // indices, extreme at front
  for (size_t i = 0; i < values.size(); ++i) {
    while (!deq.empty() && (want_min ? values[deq.back()] >= values[i]
                                     : values[deq.back()] <= values[i])) {
      deq.pop_back();
    }
    deq.push_back(i);
    if (deq.front() + w == i) deq.pop_front();
    if (i + 1 >= w) out.push_back(values[deq.front()]);
  }
  return out;
}

/// True when column `col` exists in both tables.
bool InBoth(const DataTable& original, const DataTable& released,
            size_t col) {
  return col < original.num_columns() && col < released.num_columns();
}

double RangeOf(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  return *hi - *lo;
}

double ToleranceOf(const std::vector<double>& values, double window_percent) {
  const double range = RangeOf(values);
  return window_percent / 100.0 * (range > 0.0 ? range : 1.0);
}

}  // namespace

Result<AttackOutcome> RunMinMaxQueryAttack(const DataTable& original,
                                           const DataTable& released,
                                           const MinMaxQueryConfig& config,
                                           const AttackContext& ctx) {
  const size_t n = original.num_rows();
  if (released.num_rows() != n) {
    return Status::InvalidArgument(
        "min/max attack requires aligned original and released tables");
  }
  if (config.window < 2 || config.window > n) {
    return Status::InvalidArgument(
        "query-size restriction must be in [2, rows]");
  }
  if (!(config.window_percent >= 0.0 && config.window_percent <= 100.0)) {
    return Status::InvalidArgument("window must be in [0, 100] percent");
  }
  // The order column is read from the original only.
  if (config.order_col >= original.num_columns() ||
      !InBoth(original, released, config.target_col)) {
    return Status::InvalidArgument("column index out of range");
  }
  TRIPRIV_ASSIGN_OR_RETURN(auto order_vals,
                           original.NumericColumn(config.order_col));
  TRIPRIV_ASSIGN_OR_RETURN(auto truth,
                           original.NumericColumn(config.target_col));
  TRIPRIV_ASSIGN_OR_RETURN(auto released_vals,
                           released.NumericColumn(config.target_col));

  // Auxiliary knowledge: row order along the known column (ties break on
  // row index, as external sorted lists do).
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (order_vals[a] != order_vals[b]) return order_vals[a] < order_vals[b];
    return a < b;
  });

  // The oracle's view: released values laid out in the known order.
  std::vector<double> rel(n);
  for (size_t p = 0; p < n; ++p) rel[p] = released_vals[order[p]];

  const size_t k = config.window;
  const std::vector<double> min_k = SlidingExtreme(rel, k, /*want_min=*/true);
  const std::vector<double> max_k = SlidingExtreme(rel, k, /*want_min=*/false);
  // Overlap windows of size k-1 isolate the record that entered or left.
  const std::vector<double> min_k1 =
      SlidingExtreme(rel, k - 1, /*want_min=*/true);
  const std::vector<double> max_k1 =
      SlidingExtreme(rel, k - 1, /*want_min=*/false);

  // Differencing pass (serial, O(n)): consecutive windows W_p and W_{p+1}
  // share the overlap [p+1, p+k-1]. If W_p's extreme beats the overlap's,
  // the departing record order[p] held it; if W_{p+1}'s does, the entering
  // record order[p+k] does.
  std::vector<uint8_t> pinned(n, 0);
  std::vector<double> recovered(n, 0.0);
  for (size_t p = 0; p + k < n; ++p) {
    const double overlap_min = min_k1[p + 1];
    const double overlap_max = max_k1[p + 1];
    if (min_k[p] < overlap_min) {
      pinned[order[p]] = 1;
      recovered[order[p]] = min_k[p];
    }
    if (max_k[p] > overlap_max) {
      pinned[order[p]] = 1;
      recovered[order[p]] = max_k[p];
    }
    if (min_k[p + 1] < overlap_min) {
      pinned[order[p + k]] = 1;
      recovered[order[p + k]] = min_k[p + 1];
    }
    if (max_k[p + 1] > overlap_max) {
      pinned[order[p + k]] = 1;
      recovered[order[p + k]] = max_k[p + 1];
    }
  }

  // Pure scoring fan-out: each index owns its slot.
  const double tolerance = ToleranceOf(truth, config.window_percent);
  std::vector<uint8_t> correct(n, 0);
  RunSharded(ctx.pool, n, [&](size_t /*shard*/, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      correct[i] =
          pinned[i] != 0 && std::fabs(recovered[i] - truth[i]) <= tolerance;
    }
  });

  AttackOutcome outcome;
  outcome.attack = "minmax_query_differencing";
  outcome.dimension = Dimension::kRespondent;
  outcome.trials = n;
  outcome.records_total = n;
  std::vector<size_t> tie_counts;
  tie_counts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    outcome.successes += correct[i];
    tie_counts.push_back(pinned[i] != 0 ? 1 : k);
  }
  outcome.records_recovered = outcome.successes;
  outcome.equivocation_bits = MeanCandidateBits(tie_counts);
  outcome.prior_bits = UniformBits(n);
  outcome.note = "k=" + std::to_string(k);
  return FinishOutcome(std::move(outcome), ctx);
}

Result<AttackOutcome> RunBucketReconstructionAttack(
    const DataTable& original, const DataTable& released,
    const std::vector<size_t>& bucket_of_row,
    const BucketReconstructionConfig& config, const AttackContext& ctx) {
  const size_t n = original.num_rows();
  if (released.num_rows() != n) {
    return Status::InvalidArgument(
        "bucket attack requires aligned original and released tables");
  }
  if (bucket_of_row.size() != n) {
    return Status::InvalidArgument("bucket_of_row must cover every row");
  }
  if (!(config.window_percent >= 0.0 && config.window_percent <= 100.0)) {
    return Status::InvalidArgument("window must be in [0, 100] percent");
  }
  if (!InBoth(original, released, config.target_col)) {
    return Status::InvalidArgument("column index out of range");
  }
  TRIPRIV_ASSIGN_OR_RETURN(auto truth,
                           original.NumericColumn(config.target_col));
  TRIPRIV_ASSIGN_OR_RETURN(auto released_vals,
                           released.NumericColumn(config.target_col));

  // Dense bucket ids in first-appearance order (deterministic).
  std::unordered_map<size_t, size_t> dense;
  std::vector<std::vector<size_t>> buckets;
  for (size_t i = 0; i < n; ++i) {
    const auto [it, inserted] = dense.emplace(bucket_of_row[i], buckets.size());
    if (inserted) buckets.emplace_back();
    buckets[it->second].push_back(i);
  }

  // Per-bucket reconstruction fan-out: buckets are disjoint row sets, so
  // each bucket owns its rows' slots in the shared vectors.
  std::vector<double> predicted(n, 0.0);
  std::vector<size_t> tie_counts(n, 1);
  RunSharded(ctx.pool, buckets.size(),
             [&](size_t /*shard*/, size_t begin, size_t end) {
               std::vector<size_t> ranked;
               for (size_t b = begin; b < end; ++b) {
                 const std::vector<size_t>& rows = buckets[b];
                 // Published summary of this bucket (from the release).
                 double lo = released_vals[rows[0]];
                 double hi = lo;
                 double sum = 0.0;
                 for (size_t r : rows) {
                   lo = std::min(lo, released_vals[r]);
                   hi = std::max(hi, released_vals[r]);
                   sum += released_vals[r];
                 }
                 const double mean = sum / static_cast<double>(rows.size());
                 // Rank knowledge: the true within-bucket order.
                 ranked = rows;
                 std::sort(ranked.begin(), ranked.end(),
                           [&](size_t a, size_t b2) {
                             if (truth[a] != truth[b2])
                               return truth[a] < truth[b2];
                             return a < b2;
                           });
                 const size_t s = ranked.size();
                 for (size_t r = 0; r < s; ++r) {
                   const size_t row = ranked[r];
                   if (r == 0) {
                     predicted[row] = lo;
                     tie_counts[row] = 1;
                   } else if (r + 1 == s) {
                     predicted[row] = hi;
                     tie_counts[row] = 1;
                   } else {
                     predicted[row] = mean;
                     tie_counts[row] = s > 2 ? s - 2 : 1;
                   }
                 }
               }
             });

  const double tolerance = ToleranceOf(truth, config.window_percent);
  AttackOutcome outcome;
  outcome.attack = "bucket_reconstruction";
  outcome.dimension = Dimension::kRespondent;
  outcome.trials = n;
  outcome.records_total = n;
  std::vector<size_t> bits_counts;
  bits_counts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (std::fabs(predicted[i] - truth[i]) <= tolerance) {
      outcome.successes += 1.0;
    }
    bits_counts.push_back(tie_counts[i]);
  }
  outcome.records_recovered = outcome.successes;
  outcome.equivocation_bits = MeanCandidateBits(bits_counts);
  outcome.prior_bits = UniformBits(n);
  outcome.note = "buckets=" + std::to_string(buckets.size());
  return FinishOutcome(std::move(outcome), ctx);
}

}  // namespace attack
}  // namespace tripriv
