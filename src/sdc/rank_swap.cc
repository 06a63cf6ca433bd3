#include "sdc/rank_swap.h"

#include <algorithm>
#include <numeric>

#include "util/random.h"

namespace tripriv {

Result<DataTable> RankSwap(const DataTable& table, double p,
                           const std::vector<size_t>& cols, uint64_t seed) {
  if (!(0.0 <= p && p <= 100.0)) {
    return Status::InvalidArgument("swap window must be in [0, 100] percent");
  }
  Rng rng(seed);
  DataTable out = table;
  const size_t n = table.num_rows();
  if (n < 2) return out;
  const auto window = static_cast<size_t>(p / 100.0 * static_cast<double>(n));
  for (size_t c : cols) {
    TRIPRIV_ASSIGN_OR_RETURN(auto values, table.NumericColumn(c));
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return values[a] < values[b]; });
    // Walk ranks left to right, pairing each unswapped rank with a uniform
    // partner within the window.
    std::vector<bool> swapped(n, false);
    std::vector<double> masked = values;
    for (size_t i = 0; i < n; ++i) {
      if (swapped[i]) continue;
      const size_t max_j = std::min(n - 1, i + std::max<size_t>(window, 1));
      // Collect unswapped partners in (i, max_j].
      std::vector<size_t> candidates;
      for (size_t j = i + 1; j <= max_j; ++j) {
        if (!swapped[j]) candidates.push_back(j);
      }
      if (candidates.empty()) {
        swapped[i] = true;
        continue;
      }
      const size_t j = candidates[rng.UniformU64(candidates.size())];
      std::swap(masked[order[i]], masked[order[j]]);
      swapped[i] = true;
      swapped[j] = true;
    }
    TRIPRIV_RETURN_IF_ERROR(out.SetNumericColumn(c, masked));
  }
  return out;
}

}  // namespace tripriv
