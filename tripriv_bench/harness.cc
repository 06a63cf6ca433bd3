#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

namespace tripriv_bench {
namespace {

/// Linear interpolation between closest ranks at fraction `p` of a sorted
/// sample (numpy's default percentile).
double Interpolate(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double pos = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// Python statistics.quantiles(method="exclusive") cut point j of n=4.
double ExclusiveQuartile(const std::vector<double>& sorted, size_t j) {
  const size_t m = sorted.size();
  if (m == 1) return sorted[0];
  const double pos = static_cast<double>(j) * static_cast<double>(m + 1) / 4.0;
  const double delta = pos - std::floor(pos);
  size_t i = static_cast<size_t>(std::floor(pos));
  if (i < 1) return sorted[0];
  if (i >= m) return sorted[m - 1];
  return sorted[i - 1] + (sorted[i] - sorted[i - 1]) * delta;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.q1 = ExclusiveQuartile(samples, 1);
  s.median = Interpolate(samples, 0.5);
  s.q3 = ExclusiveQuartile(samples, 3);
  s.p90 = Interpolate(samples, 0.9);
  return s;
}

uint64_t Tracer::Begin(const char* name, uint64_t parent, bool replay) {
  if (!enabled_) return 0;
  SpanRecord span;
  span.name = name;
  span.parent = parent;
  span.op = op_;
  span.replay = replay;
  span.start_ns = NowNs();
  spans_.push_back(span);
  return spans_.size();
}

void Tracer::End(uint64_t id) {
  if (id == 0) return;
  spans_[id - 1].end_ns = NowNs();
}

int64_t Tracer::Time(const char* name, uint64_t parent,
                     const std::function<void()>& fn, bool replay) {
  const uint64_t id = Begin(name, parent, replay);
  const int64_t start = NowNs();
  fn();
  const int64_t elapsed = NowNs() - start;
  End(id);
  return elapsed;
}

std::vector<int64_t> Tracer::SelfTimes() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  // Children are recorded after their parent and run inside it serially, so
  // the time they cover is the sum of their durations.
  for (size_t i = 0; i < spans_.size(); ++i) {
    const uint64_t parent = spans_[i].parent;
    if (parent != 0) {
      self[parent - 1] -= spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  return self;
}

bool Tracer::WriteJson(const std::string& path,
                       const std::string& header) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<int64_t> self = SelfTimes();
  const int64_t origin = spans_.empty() ? 0 : spans_[0].start_ns;
  out << "{\"run\":" << header << ",\"spans\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (i > 0) out << ",";
    out << "\n{\"id\":" << (i + 1) << ",\"name\":\"" << s.name
        << "\",\"parent\":" << s.parent << ",\"op\":" << s.op
        << ",\"start_ns\":" << (s.start_ns - origin)
        << ",\"end_ns\":" << (s.end_ns - origin) << ",\"self_ns\":" << self[i]
        << ",\"replay\":" << (s.replay ? "true" : "false") << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void Report::Median(const std::string& name, const std::string& unit,
                    MetricKind kind, const std::vector<double>& samples) {
  Metric m{name, unit, kind, 0.0, Summarize(samples)};
  m.value = m.summary.median;
  metrics_.push_back(m);
}

void Report::P90(const std::string& name, const std::string& unit,
                 MetricKind kind, const std::vector<double>& samples) {
  Metric m{name, unit, kind, 0.0, Summarize(samples)};
  m.value = m.summary.p90;
  metrics_.push_back(m);
}

void Report::Value(const std::string& name, const std::string& unit,
                   MetricKind kind, double value, size_t n) {
  Metric m{name, unit, kind, value, Summary{}};
  m.summary.n = n;
  m.summary.q1 = m.summary.median = m.summary.q3 = m.summary.p90 = value;
  metrics_.push_back(m);
}

void Report::CheckFailed(const std::string& what) {
  ++failed;
  if (check_failures.size() < 16) check_failures.push_back(what);
}

const Metric* Report::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double PeakResidentMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

bool ResetPeakResident() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

std::string HostJson(const Options& options) {
#ifdef TRIPRIV_OBS_DISABLED
  const char* obs = "OFF";
#else
  const char* obs = "ON";
#endif
  std::ostringstream out;
  out << "{\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"cpu_model\":\"" << JsonEscape(CpuModel()) << "\""
      << ",\"compiler\":\"" << JsonEscape(TRIPRIV_BENCH_COMPILER) << "\""
      << ",\"compiler_version\":\"" << JsonEscape(__VERSION__) << "\""
      << ",\"build_type\":\"" << TRIPRIV_BENCH_BUILD_TYPE << "\""
      << ",\"cxx_flags\":\"" << JsonEscape(TRIPRIV_BENCH_CXX_FLAGS) << "\""
      << ",\"TRIPRIV_OBS\":\"" << obs << "\""
      << ",\"workers\":" << options.workers << ",\"seed\":" << options.seed
      << ",\"seconds\":" << options.seconds
      << ",\"trace\":" << (options.trace ? 1 : 0)
      << ",\"workload\":\"" << JsonEscape(options.workload) << "\""
      << ",\"scale\":\"" << (options.tiny ? "tiny" : "full") << "\"}";
  return out.str();
}

std::vector<double> RunTimedLoop(double seconds, size_t min_ops,
                                 const std::function<int64_t(size_t)>& op) {
  std::vector<double> ms;
  const int64_t start = NowNs();
  for (size_t i = 0;; ++i) {
    if (i >= min_ops && SecondsSince(start) >= seconds) break;
    ms.push_back(static_cast<double>(op(i)) * 1e-6);
  }
  return ms;
}

std::vector<double> RepeatSetup(size_t repeats,
                                const std::function<int64_t()>& setup) {
  std::vector<double> s;
  for (size_t i = 0; i < repeats; ++i) {
    s.push_back(static_cast<double>(setup()) * 1e-9);
  }
  return s;
}

std::vector<double> PerOpSelfUs(const Tracer& tracer, const char* name) {
  const std::vector<int64_t> self = tracer.SelfTimes();
  std::map<uint64_t, double> by_op;
  const std::string wanted(name);
  for (size_t i = 0; i < tracer.spans().size(); ++i) {
    const SpanRecord& s = tracer.spans()[i];
    if (wanted == s.name) by_op[s.op] += static_cast<double>(self[i]) * 1e-3;
  }
  std::vector<double> out;
  for (const auto& [op, us] : by_op) out.push_back(us);
  return out;
}

void Fail(const std::string& what) {
  std::fprintf(stderr, "tripriv_bench: set-up failed: %s\n", what.c_str());
  std::exit(1);
}

double MedianSelfUs(const Tracer& tracer, const char* name) {
  return Summarize(PerOpSelfUs(tracer, name)).median;
}

void AddTraceOverhead(const std::vector<double>& untraced_ms,
                      const std::vector<double>& traced_ms, Report* report) {
  const double base = Summarize(untraced_ms).median;
  const double traced = Summarize(traced_ms).median;
  report->Value("trace.overhead_pct", "%", MetricKind::kLayer,
                base > 0.0 ? (traced / base - 1.0) * 100.0 : 0.0,
                traced_ms.size());
}

}  // namespace tripriv_bench
