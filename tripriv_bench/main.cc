// tripriv_bench: one workload of the end-to-end benchmark per process.
//
//   tripriv_bench --workload <pir_read|stat_query|epoch_churn|table2_census>
//                 --seed N --seconds S --trace 0|1 [--workers W] [--tiny]
//
// Prints the host line and one line per metric. The full result (host
// fingerprint, op counts, every metric the workload reports with its
// quartiles) goes to <out_dir>/<workload>_seed<N>_trace<T>.json; run.py
// turns it into the result line BENCHMARK.json declares. A traced run also
// writes its spans to <out_dir>/<workload>_seed<N>.trace.json.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"

namespace tripriv_bench {
namespace {

void Usage() {
  std::cerr << "usage: tripriv_bench --workload "
               "<pir_read|stat_query|epoch_churn|table2_census> --seed N "
               "--seconds S --trace 0|1 [--workers W] [--tiny] "
               "[--out-dir DIR]\n";
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char** value) {
      if (i + 1 >= argc) return false;
      *value = argv[++i];
      return true;
    };
    const char* value = nullptr;
    if (arg == "--tiny") {
      options->tiny = true;
    } else if (arg == "--workload" && next(&value)) {
      options->workload = value;
    } else if (arg == "--seed" && next(&value)) {
      options->seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds" && next(&value)) {
      options->seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace" && next(&value)) {
      options->trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--workers" && next(&value)) {
      options->workers = std::strtoull(value, nullptr, 10);
    } else if (arg == "--out-dir" && next(&value)) {
      options->out_dir = value;
    } else {
      return false;
    }
  }
  return !options->workload.empty() && options->seconds > 0.0;
}

std::string FormatNumber(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

std::string FullResultJson(const Options& options, const Report& report,
                           double error_frac) {
  std::ostringstream out;
  out << "{\"host\":" << HostJson(options)
      << ",\"correct\":" << (report.failed == 0 ? "true" : "false")
      << ",\"attempted\":" << report.attempted
      << ",\"failed\":" << report.failed << ",\"checks\":" << report.checks
      << ",\"error_frac\":" << FormatNumber(error_frac) << ",\"metrics\":[";
  bool first = true;
  for (const Metric& m : report.metrics()) {
    if (!first) out << ",";
    first = false;
    const char* kind = m.kind == MetricKind::kEndToEnd ? "end_to_end"
                       : m.kind == MetricKind::kLayer  ? "per_layer"
                                                       : "named";
    out << "\n{\"name\":\"" << m.name << "\",\"unit\":\"" << m.unit
        << "\",\"kind\":\"" << kind << "\",\"value\":" << FormatNumber(m.value)
        << ",\"n\":" << m.summary.n << ",\"q1\":" << FormatNumber(m.summary.q1)
        << ",\"median\":" << FormatNumber(m.summary.median)
        << ",\"q3\":" << FormatNumber(m.summary.q3)
        << ",\"p90\":" << FormatNumber(m.summary.p90) << "}";
  }
  out << "\n]}\n";
  return out.str();
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    Usage();
    return 2;
  }
  void (*run)(const Options&, Tracer*, Report*) = nullptr;
  if (options.workload == "pir_read") {
    run = RunPirRead;
  } else if (options.workload == "stat_query") {
    run = RunStatQuery;
  } else if (options.workload == "epoch_churn") {
    run = RunEpochChurn;
  } else if (options.workload == "table2_census") {
    run = RunTable2Census;
  } else {
    Usage();
    return 2;
  }

  const std::string host = HostJson(options);
  std::cout << "host " << host << std::endl;
  Tracer tracer(options.trace);
  Report report;
  run(options, &tracer, &report);

  const double error_frac =
      report.attempted == 0 ? 1.0
                            : static_cast<double>(report.failed) /
                                  static_cast<double>(report.attempted);
  report.Value("error_frac", "ratio", MetricKind::kNamed, error_frac,
               report.attempted);
  for (const Metric& m : report.metrics()) {
    std::printf("metric %-30s %14.6g %-6s n=%zu median=%.6g q1=%.6g q3=%.6g\n",
                m.name.c_str(), m.value, m.unit.c_str(), m.summary.n,
                m.summary.median, m.summary.q1, m.summary.q3);
  }
  std::printf("checks %llu failed %llu attempted %llu\n",
              static_cast<unsigned long long>(report.checks),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  for (const std::string& why : report.check_failures) {
    std::printf("FAILED %s\n", why.c_str());
  }
  std::fflush(stdout);

  ::mkdir(options.out_dir.c_str(), 0755);
  const std::string stem = options.out_dir + "/" + options.workload + "_seed" +
                           std::to_string(options.seed);
  std::ofstream(stem + "_trace" + (options.trace ? "1" : "0") + ".json")
      << FullResultJson(options, report, error_frac);
  if (options.trace && !tracer.WriteJson(stem + ".trace.json", host)) {
    std::fprintf(stderr, "could not write %s.trace.json\n", stem.c_str());
  }
  return report.failed == 0 && report.attempted > 0 ? 0 : 1;
}

}  // namespace
}  // namespace tripriv_bench

int main(int argc, char** argv) { return tripriv_bench::Main(argc, argv); }
