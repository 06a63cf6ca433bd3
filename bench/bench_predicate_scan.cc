// Predicate scan cost: what one WHERE clause costs over a census table.
//
// Every audited statistical query scans the whole table to learn its
// query set (Section 3's query-set-size and auditing controls key off
// |QS|), so the scan is most of what serving one costs. The three arms
// are the predicate families the benchmark's stat_query traffic draws
// (age range, education floor, region equality), over the 50,000-row
// census extract. The floor arm touches one cell per row and compares
// nothing: the cost of walking the row-major layout, which no evaluator
// can beat.
//
// Counters: `rows` scanned per iteration and `matched`, the query-set
// size, are deterministic; `per_row` is wall time per row scanned.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "table/datasets.h"
#include "table/predicate.h"

namespace tripriv {
namespace {

constexpr size_t kRows = 50000;

const DataTable& Census() {
  static const DataTable table = MakeCensus(kRows, 1);
  return table;
}

void ReportRows(benchmark::State& state, size_t matched) {
  const auto rows = static_cast<double>(Census().num_rows());
  state.counters["rows"] = rows;
  state.counters["matched"] = static_cast<double>(matched);
  state.counters["per_row"] = benchmark::Counter(
      rows, benchmark::Counter::kIsIterationInvariantRate |
                benchmark::Counter::kInvert);
}

void BM_PredicateScan(benchmark::State& state, const Predicate& where) {
  const DataTable& table = Census();
  size_t matched = 0;
  for (auto _ : state) {
    auto rows = where.MatchingRows(table);
    TRIPRIV_CHECK(rows.ok()) << rows.status().ToString();
    matched = rows->size();
    benchmark::DoNotOptimize(rows);
  }
  ReportRows(state, matched);
}
BENCHMARK_CAPTURE(BM_PredicateScan, age_range,
                  Predicate::And(
                      Predicate::Compare("age", CompareOp::kGe, Value(40)),
                      Predicate::Compare("age", CompareOp::kLe, Value(52))))
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_PredicateScan, education_floor,
                  Predicate::Compare("education", CompareOp::kGe, Value(9)))
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_PredicateScan, region_eq,
                  Predicate::Compare("region", CompareOp::kEq, Value("R5")))
    ->Unit(benchmark::kMicrosecond);

/// The row-layout floor: read one cell of every row (is it null?) and
/// count, with no lookup, no comparison and no output vector.
void BM_TouchOneCellPerRow(benchmark::State& state) {
  const DataTable& table = Census();
  const size_t col = *table.schema().IndexOf("age");
  size_t touched = 0;
  for (auto _ : state) {
    touched = 0;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      touched += table.row(r)[col].is_null() ? 0 : 1;
    }
    benchmark::DoNotOptimize(touched);
  }
  ReportRows(state, touched);
}
BENCHMARK(BM_TouchOneCellPerRow)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace tripriv

BENCHMARK_MAIN();
