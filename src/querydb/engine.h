// Exact (unprotected) evaluation of statistical queries.

#pragma once

#include "querydb/query.h"
#include "table/data_table.h"
#include "util/clock.h"

namespace tripriv {

/// Exact answer to a query plus the query-set size — the quantity
/// protection mechanisms key off.
struct QueryAnswer {
  double value = 0.0;
  size_t query_set_size = 0;
};

/// Evaluates `query` on `table`. COUNT needs no attribute; SUM/AVG/MIN/MAX
/// need a numeric attribute. AVG/MIN/MAX over an empty selection fail with
/// FailedPrecondition; SUM and COUNT return 0.
Result<QueryAnswer> ExecuteQuery(const DataTable& table, const StatQuery& query);

/// Rows scanned per simulated tick in the deadline-aware overload's cost
/// model. A request-level Deadline therefore bounds how much table the
/// evaluator may touch before failing typed.
inline constexpr size_t kEvalRowsPerTick = 256;

/// Deadline-aware evaluation: charges the scan cost, `rows /
/// kEvalRowsPerTick + 1` ticks, to `clock` (one tick per started
/// kEvalRowsPerTick rows, plus one more when `rows` is an exact multiple,
/// so an empty table still costs a tick), then fails with
/// kDeadlineExceeded — without producing an answer — when `deadline` has
/// passed. This is how a QueryService request deadline propagates into
/// query evaluation.
Result<QueryAnswer> ExecuteQuery(const DataTable& table, const StatQuery& query,
                                 SimClock* clock, const Deadline& deadline);

}  // namespace tripriv

