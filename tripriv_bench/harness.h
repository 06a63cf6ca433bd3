// Shared machinery of the end-to-end benchmark: wall-clock timing, sample
// statistics, an in-memory span tracer, the result report, and the host
// fingerprint every result carries.
//
// Wall clock lives here and only here: the library under src/ runs on
// SimClock ticks and is never handed a real clock. Spans are recorded from
// the benchmark's own calls into each layer's public functions.

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace tripriv_bench {

/// Command-line settings of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// ThreadPool workers handed to the library (0 = inline).
  size_t workers = 2;
  /// Self-test scale: every input shrunk so a run takes well under a second.
  bool tiny = false;
  /// Directory (relative to the working directory) for trace and result files.
  std::string out_dir = ".bench_out";
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds since `start_ns`.
inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Order statistics of one metric's samples.
struct Summary {
  size_t n = 0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double p90 = 0.0;
};

/// Quartiles by the exclusive method (Python statistics.quantiles default);
/// p90 by linear interpolation between closest ranks.
Summary Summarize(std::vector<double> samples);

/// One in-memory span: a timed call into a layer.
struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index + 1 of the parent span; 0 for a root.
  uint64_t parent = 0;
  /// Timed operation the span belongs to.
  uint64_t op = 0;
  /// True when the span re-runs a stage that is only reachable inside
  /// another public call (see README: "replayed stages").
  bool replay = false;
};

/// Collects spans in memory; written out once when the run ends. Disabled
/// tracers record nothing and return span id 0.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  void set_op(uint64_t op) { op_ = op; }

  uint64_t Begin(const char* name, uint64_t parent, bool replay = false);
  void End(uint64_t id);

  /// Runs `fn` inside a span and returns its duration in nanoseconds (the
  /// duration is measured even when the tracer is disabled).
  int64_t Time(const char* name, uint64_t parent,
               const std::function<void()>& fn, bool replay = false);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Self time of span `i`: its duration minus the time its children cover.
  std::vector<int64_t> SelfTimes() const;
  /// Writes {"spans": [...]} with ids, parents, ops and self times.
  bool WriteJson(const std::string& path, const std::string& header) const;

 private:
  bool enabled_;
  uint64_t op_ = 0;
  std::vector<SpanRecord> spans_;
};

/// RAII span on a tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent,
             bool replay = false)
      : tracer_(tracer), id_(tracer->Begin(name, parent, replay)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint64_t id_;
};

/// What a metric is for: the driver-facing end-to-end set, the per-layer
/// set of the traced run, or a workload-named figure for the human report.
enum class MetricKind { kEndToEnd, kLayer, kNamed };

struct Metric {
  std::string name;
  std::string unit;
  MetricKind kind = MetricKind::kNamed;
  double value = 0.0;
  Summary summary;
};

/// Everything a workload run produces.
class Report {
 public:
  /// Adds a metric whose value is the median of `samples`.
  void Median(const std::string& name, const std::string& unit,
              MetricKind kind, const std::vector<double>& samples);
  /// Adds a metric whose value is the p90 of `samples`.
  void P90(const std::string& name, const std::string& unit, MetricKind kind,
           const std::vector<double>& samples);
  /// Adds a single-valued metric (a rate, a count, a ratio).
  void Value(const std::string& name, const std::string& unit,
             MetricKind kind, double value, size_t n = 1);

  /// Counts one attempted operation, failed when `ok` is false.
  void CountOp(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// Records a failed output check (also fails the run).
  void CheckFailed(const std::string& what);

  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* Find(const std::string& name) const;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t checks = 0;
  std::vector<std::string> check_failures;

 private:
  std::vector<Metric> metrics_;
};

/// Resident high-water mark of this process, in MiB (VmHWM).
double PeakResidentMb();
/// Lowers the high-water mark to the current resident set (writes "5" to
/// /proc/self/clear_refs); false when the kernel refuses.
bool ResetPeakResident();

/// Host and build fingerprint, as a JSON object.
std::string HostJson(const Options& options);

/// Runs `op` until `seconds` have passed and at least `min_ops` ran;
/// returns each op's duration in ms as `op` reports it (an op returns its
/// own timed duration in ns).
std::vector<double> RunTimedLoop(double seconds, size_t min_ops,
                                 const std::function<int64_t(size_t)>& op);

/// Runs `setup` `repeats` times and returns each duration in seconds.
std::vector<double> RepeatSetup(size_t repeats,
                                const std::function<int64_t()>& setup);

/// Per-op sums of the self time of spans named `name`, in µs, one entry
/// per op that ran such a span.
std::vector<double> PerOpSelfUs(const Tracer& tracer, const char* name);
/// Median of PerOpSelfUs (0 when no such span ran).
double MedianSelfUs(const Tracer& tracer, const char* name);

/// Aborts the run (no result line, nonzero exit) on a failed set-up step.
void Fail(const std::string& what);

/// Peak resident set of the first kOps timed ops. The kernel's high-water
/// mark is reset when the probe is made (after set-up and warm-up) and after
/// each sample, and read after each of those ops, so memory an op allocates
/// and frees inside itself counts. The fixed op count keeps the figure
/// independent of run length (stat_query's audit WAL is in memory and grows
/// with every query).
class RssProbe {
 public:
  static constexpr size_t kOps = 50;
  RssProbe() { Reset(); }
  void AfterOp(size_t op_index) {
    if (op_index >= kOps) return;
    mb_ = std::max(mb_, PeakResidentMb());
    Reset();
  }
  double Peak() const { return mb_; }

 private:
  static void Reset() {
    if (!ResetPeakResident()) Fail("cannot reset the resident high-water mark");
  }
  double mb_ = 0.0;
};
template <typename S>
void Require(const S& status, const char* what) {
  if (status.ok()) return;
  if constexpr (requires { status.status(); }) {
    Fail(std::string(what) + ": " + status.status().ToString());
  } else {
    Fail(std::string(what) + ": " + status.ToString());
  }
}

/// Splits `seconds` of a traced run: the untraced phase that anchors
/// trace.overhead_pct, then the traced phase.
inline double UntracedShare(const Options& options) {
  return options.trace ? 0.4 * options.seconds : options.seconds;
}

/// Workload entry points; each fills `report` (see README for metrics).
void RunPirRead(const Options& options, Tracer* tracer, Report* report);
void RunStatQuery(const Options& options, Tracer* tracer, Report* report);
void RunEpochChurn(const Options& options, Tracer* tracer, Report* report);
void RunTable2Census(const Options& options, Tracer* tracer, Report* report);

/// Adds trace.overhead_pct from untraced vs traced op medians.
void AddTraceOverhead(const std::vector<double>& untraced_ms,
                      const std::vector<double>& traced_ms, Report* report);

}  // namespace tripriv_bench
