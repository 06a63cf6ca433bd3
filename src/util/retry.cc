#include "util/retry.h"

#include <cmath>

namespace tripriv {

uint64_t RetryPolicy::BackoffTicks(size_t attempt) const {
  const uint64_t cap = max_backoff_ticks < 1 ? 1 : max_backoff_ticks;
  const double base = static_cast<double>(initial_backoff_ticks < 1
                                              ? 1
                                              : initial_backoff_ticks);
  const double mult = backoff_multiplier < 1.0 ? 1.0 : backoff_multiplier;
  const double raw = base * std::pow(mult, static_cast<double>(attempt));
  // Clamp to the integer ceiling BEFORE the cast: for large attempt counts
  // `raw` overflows to +inf (and a cap near UINT64_MAX rounds up to 2^64
  // as a double), and casting a double outside uint64_t's range is
  // undefined behavior. The negated comparison also routes NaN to the cap.
  if (!(raw < static_cast<double>(cap))) return cap;
  return raw < 1.0 ? 1 : static_cast<uint64_t>(raw);
}

}  // namespace tripriv
