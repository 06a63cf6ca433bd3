// stat_query: audited statistical queries through QueryService, fed by the
// traffic generator and the fair scheduler.
//
// Op: one window of the closed loop — generate Steady-profile arrivals
// until 16 are runnable, enqueue + EnforceWatermark + PollRound, map each
// event key to a query, and run the 16 through
// BatchExecutor::ExecuteQueryBatch. The traced run replays the batch's
// stages next to it: the executor's parallel Prepare stage, and per query
// the scans SubmitPrepared makes (ExecuteQuery twice — deadline-aware and
// inside StatDatabase::Query — plus one Predicate::MatchingRows).

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <string>

#include "harness.h"
#include "obs/instruments.h"
#include "obs/metrics.h"
#include "querydb/engine.h"
#include "service/audit_wal.h"
#include "service/batch_executor.h"
#include "service/query_service.h"
#include "service/traffic/fair_scheduler.h"
#include "service/traffic/traffic_profile.h"
#include "table/datasets.h"
#include "util/thread_pool.h"

namespace tripriv_bench {
namespace {

using tripriv::StatQuery;
using tripriv::traffic::TrafficEvent;

constexpr size_t kBatch = 16;
/// A set-up takes ~5 ms; host contention comes in bursts of about half a
/// second, so the repeats span seconds to keep one burst from deciding
/// the median.
constexpr size_t kSetupRepeats = 1001;
constexpr size_t kCounterOps = 8;
/// Deadline wide enough for a full-table scan (rows / kEvalRowsPerTick
/// ticks) plus admission, so admitted queries reach the primary path.
constexpr uint64_t kDeadlineTicks = uint64_t{1} << 20;

/// The simulator's three predicate families (age range, education floor,
/// region equality), keyed the same way.
StatQuery QueryForKey(uint64_t key) {
  using tripriv::CompareOp;
  using tripriv::Predicate;
  using tripriv::Value;
  StatQuery query;
  query.table = "census";
  const uint64_t variant = key / 3;
  switch (key % 3) {
    case 0: {
      const int64_t lo = 18 + static_cast<int64_t>(variant % 55);
      query.where = Predicate::And(
          Predicate::Compare("age", CompareOp::kGe, Value(lo)),
          Predicate::Compare("age", CompareOp::kLe, Value(lo + 12)));
      break;
    }
    case 1:
      query.where = Predicate::Compare(
          "education", CompareOp::kGe,
          Value(1 + static_cast<int64_t>(variant % 12)));
      break;
    default:
      query.where = Predicate::Compare(
          "region", CompareOp::kEq, Value("R" + std::to_string(variant % 12)));
      break;
  }
  return query;
}

/// The audit log device: an append-only list of records, the way a log file
/// grows. tripriv::MemWalIo keeps the log in one byte vector whose capacity
/// doublings copy the whole log; which op pays for the copy depends on the
/// seed, and that copy would decide peak_rss_mb.
class AppendOnlyWalIo final : public tripriv::WalIo {
 public:
  tripriv::Result<size_t> Append(const std::vector<uint8_t>& bytes) override {
    records_.push_back(bytes);
    size_ += bytes.size();
    return bytes.size();
  }
  tripriv::Status Sync() override { return tripriv::Status::OK(); }
  tripriv::Status Truncate(size_t new_size) override {
    if (new_size > size_) {
      return tripriv::Status::OutOfRange("truncate past end of WAL");
    }
    while (size_ > new_size) {
      std::vector<uint8_t>& last = records_.back();
      const size_t drop = std::min(last.size(), size_ - new_size);
      last.resize(last.size() - drop);
      size_ -= drop;
      if (last.empty()) records_.pop_back();
    }
    return tripriv::Status::OK();
  }
  tripriv::Result<std::vector<uint8_t>> ReadAll() const override {
    std::vector<uint8_t> all;
    all.reserve(size_);
    for (const std::vector<uint8_t>& record : records_) {
      all.insert(all.end(), record.begin(), record.end());
    }
    return all;
  }
  size_t size() const override { return size_; }

 private:
  std::vector<std::vector<uint8_t>> records_;
  size_t size_ = 0;
};

struct Backend {
  AppendOnlyWalIo wal_io;
  tripriv::obs::MetricsRegistry registry;
  std::optional<tripriv::obs::ServiceMetrics> metrics;
  std::optional<tripriv::QueryService> service;
  std::optional<tripriv::BatchExecutor> executor;
  std::optional<tripriv::traffic::FairScheduler> scheduler;
  std::optional<tripriv::traffic::TrafficGenerator> generator;
};

/// Per-window timings, in ns.
struct WindowTimes {
  int64_t generate = 0;
  int64_t schedule = 0;
  int64_t execute = 0;
  int64_t total() const { return generate + schedule + execute; }
};

}  // namespace

void RunStatQuery(const Options& options, Tracer* tracer, Report* report) {
  const size_t rows = options.tiny ? 2000 : 50000;
  const tripriv::DataTable table = tripriv::MakeCensus(rows, options.seed);
  const tripriv::traffic::TrafficProfile profile =
      tripriv::traffic::TrafficProfile::Steady(options.seed);
  tripriv::ThreadPool pool(options.workers);

  tripriv::QueryServiceConfig config;
  config.default_deadline_ticks = kDeadlineTicks;
  config.admission.capacity = 4 * kBatch;
  tripriv::traffic::FairSchedulerConfig scheduler_config;
  scheduler_config.batch_size = kBatch;

  std::unique_ptr<Backend> backend;
  const std::vector<double> setup_s = RepeatSetup(kSetupRepeats, [&] {
    backend.reset();
    auto next = std::make_unique<Backend>();
    const int64_t start = NowNs();
    auto service =
        tripriv::QueryService::Create(table, config, &next->wal_io);
    Require(service, "QueryService::Create");
    next->service.emplace(std::move(service).value());
    auto metrics = tripriv::obs::ServiceMetrics::Create(&next->registry,
                                                        nullptr, nullptr);
    Require(metrics, "ServiceMetrics::Create");
    next->metrics.emplace(std::move(metrics).value());
    next->service->AttachInstruments(&*next->metrics);
    next->executor.emplace(&*next->service, &pool);
    next->scheduler.emplace(profile, scheduler_config);
    next->generator.emplace(profile);
    const int64_t elapsed = NowNs() - start;
    backend = std::move(next);
    return elapsed;
  });
  tripriv::QueryService& service = *backend->service;
  tripriv::BatchExecutor& executor = *backend->executor;
  tripriv::traffic::FairScheduler& scheduler = *backend->scheduler;
  tripriv::traffic::TrafficGenerator& generator = *backend->generator;

  uint64_t tick = 0;
  uint64_t arrivals = 0;
  uint64_t sheds = 0;
  uint64_t queries_run = 0;
  uint64_t protected_answers = 0;
  uint64_t policy_refusals = 0;
  std::deque<TrafficEvent> ready;  // dispatched, not yet batched
  std::vector<TrafficEvent> arrived;
  std::vector<TrafficEvent> shed;
  std::vector<TrafficEvent> runnable;
  std::vector<TrafficEvent> expired;

  // Per-query output check: a protected answer must equal ExecuteQuery on
  // the backing table; a refusal must be the query-set-size policy's.
  auto check = [&](const StatQuery& query, const tripriv::ServiceAnswer& answer,
                   const tripriv::Result<tripriv::QueryAnswer>& expected) {
    ++report->checks;
    ++queries_run;
    bool ok = expected.ok();
    if (ok && answer.tier == tripriv::AnswerTier::kProtected) {
      ++protected_answers;
      ok = answer.answer.value == expected->value;
      if (!ok) report->CheckFailed("protected answer != ExecuteQuery: " + query.ToString());
    } else if (ok && answer.tier == tripriv::AnswerTier::kRefused &&
               answer.refusal.code() == tripriv::StatusCode::kPermissionDenied) {
      ++policy_refusals;
      const size_t t = config.protection.min_query_set_size;
      ok = expected->query_set_size < t ||
           expected->query_set_size > rows - t;
      if (!ok) report->CheckFailed("refused a query the size policy admits");
    } else {
      ok = false;
    }
    report->CountOp(ok);
  };

  // One window; `replay` adds the traced stage replays under `op_span`.
  std::vector<double> prepare_us, execute_us, match_us, rest_us, coverage;
  auto window = [&](bool replay, uint64_t op_span) {
    WindowTimes t;
    t.generate = tracer->Time("traffic.generate", op_span, [&] {
      arrived.clear();
      while (ready.size() + scheduler.backlog() + arrived.size() < kBatch) {
        generator.GenerateWindow(tick, tick + 1, &arrived);
        ++tick;
      }
    });
    t.schedule = tracer->Time("traffic.schedule", op_span, [&] {
      for (const TrafficEvent& event : arrived) {
        ++arrivals;
        if (!scheduler.Enqueue(event).queued) ++sheds;
      }
      shed.clear();
      scheduler.EnforceWatermark(&shed);
      sheds += shed.size();
      while (ready.size() < kBatch && scheduler.backlog() > 0) {
        runnable.clear();
        expired.clear();
        scheduler.PollRound(tick, &runnable, &expired);
        sheds += expired.size();
        ready.insert(ready.end(), runnable.begin(), runnable.end());
      }
    });
    std::vector<StatQuery> queries;
    std::vector<uint8_t> classes;
    for (size_t i = 0; i < kBatch && !ready.empty(); ++i) {
      queries.push_back(QueryForKey(ready.front().key));
      classes.push_back(ready.front().cls);
      ready.pop_front();
    }
    std::vector<tripriv::ServiceAnswer> answers;
    t.execute = tracer->Time("service.execute_query_batch", op_span, [&] {
      answers = executor.ExecuteQueryBatch(queries, classes);
    });

    if (!replay) {
      for (size_t i = 0; i < queries.size(); ++i) {
        check(queries[i], answers[i], tripriv::ExecuteQuery(table, queries[i]));
      }
      return t;
    }
    // Replays: the executor's parallel Prepare stage, then per query the
    // scans SubmitPrepared makes.
    std::vector<tripriv::PreparedQuery> prepared(queries.size());
    const int64_t prepare = tracer->Time("service.prepare", op_span, [&] {
      pool.ParallelFor(queries.size(), [&](size_t, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) prepared[i] = service.Prepare(queries[i]);
      });
    }, true);
    int64_t scans = 0;
    int64_t execute_sum = 0;
    int64_t match_sum = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      std::optional<tripriv::Result<tripriv::QueryAnswer>> expected;
      const int64_t exec = tracer->Time("querydb.execute", op_span, [&] {
        expected.emplace(tripriv::ExecuteQuery(table, queries[i]));
      }, true);
      const int64_t match = tracer->Time("table.match_rows", op_span, [&] {
        auto matched = queries[i].where.MatchingRows(table);
        Require(matched, "Predicate::MatchingRows");
      }, true);
      check(queries[i], answers[i], *expected);
      execute_sum += exec;
      match_sum += match;
      scans += 2 * exec + match;
    }
    const double per_query = 1e-3 / static_cast<double>(queries.size());
    prepare_us.push_back(static_cast<double>(prepare) * per_query);
    execute_us.push_back(static_cast<double>(execute_sum) * per_query);
    match_us.push_back(static_cast<double>(match_sum) * per_query);
    rest_us.push_back(
        static_cast<double>(std::max<int64_t>(t.execute - prepare - scans, 0)) *
        per_query);
    const int64_t covered =
        t.generate + t.schedule + std::min(t.execute, prepare + scans);
    coverage.push_back(static_cast<double>(covered) /
                       static_cast<double>(t.total()));
    return t;
  };

  // Warm-up window (first-touch faults, scheduler arena growth).
  window(false, 0);

  RssProbe rss;
  const uint64_t wal_before = service.wal().bytes_appended();
  const uint64_t queries_before = queries_run;
  uint64_t wal_prefix = 0;
  uint64_t queries_prefix = 0;
  std::vector<double> gen_us, sched_us;
  const std::vector<double> window_ms =
      RunTimedLoop(UntracedShare(options), RssProbe::kOps, [&](size_t i) {
        const WindowTimes t = window(false, 0);
        rss.AfterOp(i);
        if (i + 1 == kCounterOps) {
          wal_prefix = service.wal().bytes_appended() - wal_before;
          queries_prefix = queries_run - queries_before;
        }
        gen_us.push_back(static_cast<double>(t.generate) * 1e-3);
        sched_us.push_back(static_cast<double>(t.schedule) * 1e-3);
        return t.total();
      });

  double total_s = 0.0;
  for (double ms : window_ms) total_s += ms * 1e-3;
  const double queries = static_cast<double>(window_ms.size() * kBatch);
  report->Median("setup_s", "s", MetricKind::kEndToEnd, setup_s);
  report->Value("peak_rss_mb", "MB", MetricKind::kEndToEnd, rss.Peak());
  report->Median("op_p50_ms", "ms", MetricKind::kEndToEnd, window_ms);
  report->Median("query_p50_ms", "ms", MetricKind::kNamed, window_ms);
  report->P90("query_p90_ms", "ms", MetricKind::kNamed, window_ms);
  report->Value("queries_per_s", "1/s", MetricKind::kNamed, queries / total_s,
                window_ms.size());

  report->Value("service.wal_bytes_per_query", "bytes", MetricKind::kLayer,
                static_cast<double>(wal_prefix) /
                    static_cast<double>(queries_prefix),
                queries_prefix);
  report->Value("service.protected_frac", "ratio", MetricKind::kLayer,
                static_cast<double>(protected_answers) /
                    static_cast<double>(queries_run),
                queries_run);
  report->Value("service.policy_refused_frac", "ratio", MetricKind::kLayer,
                static_cast<double>(policy_refusals) /
                    static_cast<double>(queries_run),
                queries_run);
  report->Value("traffic.shed_frac", "ratio", MetricKind::kLayer,
                static_cast<double>(sheds) / static_cast<double>(arrivals),
                arrivals);
  if (!options.trace) {
    report->Median("traffic.generate_us", "us", MetricKind::kLayer, gen_us);
    report->Median("traffic.schedule_us", "us", MetricKind::kLayer, sched_us);
    return;
  }

  size_t op_id = 0;
  const std::vector<double> traced_ms =
      RunTimedLoop(options.seconds - UntracedShare(options), 8, [&](size_t) {
        tracer->set_op(++op_id);
        ScopedSpan op_span(tracer, "stat_query.window", 0);
        return window(true, op_span.id()).total();
      });
  report->Value("traffic.generate_us", "us", MetricKind::kLayer,
                MedianSelfUs(*tracer, "traffic.generate"), traced_ms.size());
  report->Value("traffic.schedule_us", "us", MetricKind::kLayer,
                MedianSelfUs(*tracer, "traffic.schedule"), traced_ms.size());
  report->Median("service.prepare_us", "us", MetricKind::kLayer, prepare_us);
  report->Median("querydb.execute_us", "us", MetricKind::kLayer, execute_us);
  report->Median("table.match_rows_us", "us", MetricKind::kLayer, match_us);
  report->Median("service.submit_rest_us", "us", MetricKind::kLayer, rest_us);
  report->Median("trace.coverage", "ratio", MetricKind::kLayer, coverage);
  AddTraceOverhead(window_ms, traced_ms, report);
}

}  // namespace tripriv_bench
