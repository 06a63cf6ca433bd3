// pir_read: batches of private record reads through QueryService on a
// recursive (d = 2) failover PIR backend.
//
// Op: one BatchExecutor::ExecutePirBatch of 8 uniform indices, tenant class
// interactive, infinite Deadline. The traced run replays each read's pir/
// stages (query build, axis expansion, product expansion, XOR sweep)
// through their public functions against the same replicas, and reports
// the rest of the batch (failover, checksum verification, sessions) as
// service.pir_batch_rest_us.

#include <bit>
#include <cstring>
#include <memory>
#include <optional>

#include "harness.h"
#include "obs/instruments.h"
#include "pir/recursive_pir.h"
#include "service/audit_wal.h"
#include "service/batch_executor.h"
#include "service/pir_failover.h"
#include "service/query_service.h"
#include "table/datasets.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace tripriv_bench {
namespace {

using tripriv::Deadline;
using tripriv::FailoverPirClient;
using tripriv::HypercubeQuery;
using tripriv::Rng;

constexpr size_t kRecordBytes = 64;
constexpr size_t kBatch = 8;
constexpr size_t kGroups = 2;
constexpr size_t kDimensions = 2;
/// Checksum suffix FailoverPirClient appends to every stored record.
constexpr size_t kChecksumBytes = 8;
constexpr size_t kSetupRepeats = 3;
/// Ops over which the exact work counters are taken (a fixed prefix, so
/// they repeat exactly for a seed whatever the run length).
constexpr size_t kCounterOps = 16;

/// The serving stack under test.
struct Backend {
  tripriv::MemWalIo wal_io;
  std::optional<tripriv::QueryService> service;
  std::optional<FailoverPirClient> client;
  std::optional<tripriv::BatchExecutor> executor;
};

/// Work counters read off the client, summed over all reads so far.
struct Counters {
  uint64_t reads = 0;
  uint64_t upload_bits = 0;
  uint64_t expanded_cells = 0;
  uint64_t bytes_xored = 0;
};

Counters ReadCounters(const FailoverPirClient& client) {
  Counters c;
  c.reads = client.sessions().total_reads();
  c.upload_bits = client.sessions().total_upload_bits();
  c.expanded_cells = client.sessions().total_expanded_cells();
  c.bytes_xored = client.total_bytes_xored();
  return c;
}

/// Per-op stage times of the traced replay, in ns.
struct ReplayTimes {
  int64_t staged = 0;
  uint64_t bytes_xored = 0;
};

/// Replays one read's pir/ stages through the public functions, on the
/// backend's own group-0 replicas, and checks the reconstruction.
ReplayTimes ReplayRead(FailoverPirClient& client, size_t index, Rng* rng,
                       tripriv::ThreadPool* pool, Tracer* tracer,
                       uint64_t parent,
                       const std::vector<uint8_t>& expected, Report* report) {
  ReplayTimes out;
  const tripriv::HypercubeGeometry& g = client.geometry();
  std::optional<std::vector<HypercubeQuery>> queries;
  out.staged += tracer->Time("pir.query_build", parent, [&] {
    auto built = tripriv::BuildHypercubeQueries(g, index, rng);
    Require(built, "BuildHypercubeQueries");
    queries.emplace(std::move(built).value());
  }, true);
  std::vector<uint8_t> acc(kRecordBytes + kChecksumBytes, 0);
  std::vector<uint8_t> flat;
  for (size_t m = 0; m < queries->size(); ++m) {
    const HypercubeQuery& q = (*queries)[m];
    std::vector<std::vector<uint8_t>> seeded;
    if (q.seed_only) {
      out.staged += tracer->Time("pir.axis_expand", parent, [&] {
        seeded = tripriv::ExpandAxisSelections(q.seed, g);
      }, true);
    }
    const auto& axis = q.seed_only ? seeded : q.axis_bits;
    out.staged += tracer->Time("pir.product_expand", parent, [&] {
      tripriv::ExpandProductSelection(axis, g, &flat);
    }, true);
    uint64_t selected = 0;
    for (uint8_t byte : flat) selected += std::popcount(byte);
    out.bytes_xored += selected * (kRecordBytes + kChecksumBytes);
    out.staged += tracer->Time("pir.sweep", parent, [&] {
      auto answer = client.server(m).ComputeAnswer(flat, pool);
      Require(answer, "XorPirServer::ComputeAnswer");
      for (size_t i = 0; i < acc.size(); ++i) acc[i] ^= (*answer)[i];
    }, true);
  }
  ++report->checks;
  if (std::memcmp(acc.data(), expected.data(), kRecordBytes) != 0) {
    report->CheckFailed("replayed PIR read differs from the plaintext record");
  }
  return out;
}

}  // namespace

void RunPirRead(const Options& options, Tracer* tracer, Report* report) {
  const size_t n = options.tiny ? 1024 : (size_t{1} << 18);
  Rng input_rng(options.seed);
  std::vector<std::vector<uint8_t>> records(n,
                                            std::vector<uint8_t>(kRecordBytes));
  for (auto& record : records) {
    for (size_t i = 0; i < kRecordBytes; i += 8) {
      const uint64_t word = input_rng.NextU64();
      std::memcpy(record.data() + i, &word, 8);
    }
  }
  const tripriv::DataTable stat_table = tripriv::MakeCensus(16, options.seed);
  tripriv::ThreadPool pool(options.workers);

  // Set-up: service + recursive failover backend (replication, checksums,
  // parity preprocessing) + executor, built kSetupRepeats times.
  std::unique_ptr<Backend> backend;
  const std::vector<double> setup_s = RepeatSetup(kSetupRepeats, [&] {
    backend.reset();
    const int64_t start = NowNs();
    auto next = std::make_unique<Backend>();
    auto service = tripriv::QueryService::Create(
        stat_table, tripriv::QueryServiceConfig{}, &next->wal_io);
    Require(service, "QueryService::Create");
    next->service.emplace(std::move(service).value());
    auto client = FailoverPirClient::BuildRecursive(
        records, kGroups, kDimensions, tripriv::RetryPolicy{},
        next->service->sim_clock(), options.seed ^ 0x5EEDull,
        /*preprocess=*/true);
    Require(client, "FailoverPirClient::BuildRecursive");
    next->client.emplace(std::move(client).value());
    next->service->AttachPirBackend(&*next->client);
    next->executor.emplace(&*next->service, &pool);
    const int64_t elapsed = NowNs() - start;
    backend = std::move(next);
    return elapsed;
  });
  FailoverPirClient& client = *backend->client;
  tripriv::BatchExecutor& executor = *backend->executor;

  auto draw_batch = [&] {
    std::vector<size_t> indices(kBatch);
    for (size_t& index : indices) index = input_rng.UniformU64(n);
    return indices;
  };
  auto check_batch = [&](const std::vector<size_t>& indices,
                         const std::vector<tripriv::Result<std::vector<uint8_t>>>&
                             results) {
    for (size_t i = 0; i < indices.size(); ++i) {
      bool ok = results[i].ok();
      ++report->checks;
      if (ok && *results[i] != records[indices[i]]) {
        ok = false;
        report->CheckFailed("PIR read differs from the plaintext record");
      }
      report->CountOp(ok);
    }
  };

  // Warm-up: lazy session establishment and first-touch page faults.
  for (int i = 0; i < 2; ++i) {
    const std::vector<size_t> indices = draw_batch();
    check_batch(indices, executor.ExecutePirBatch(
                             indices, Deadline(), tripriv::obs::kClassInteractive));
  }

  RssProbe rss;
  const Counters before = ReadCounters(client);
  Counters after_prefix;
  auto untraced_op = [&](size_t i) {
    const std::vector<size_t> indices = draw_batch();
    const int64_t start = NowNs();
    auto results = executor.ExecutePirBatch(indices, Deadline(),
                                            tripriv::obs::kClassInteractive);
    const int64_t elapsed = NowNs() - start;
    check_batch(indices, results);
    rss.AfterOp(i);
    if (i + 1 == kCounterOps) after_prefix = ReadCounters(client);
    return elapsed;
  };
  const std::vector<double> batch_ms =
      RunTimedLoop(UntracedShare(options), RssProbe::kOps, untraced_op);

  double total_s = 0.0;
  for (double ms : batch_ms) total_s += ms * 1e-3;
  const double reads = static_cast<double>(batch_ms.size() * kBatch);
  report->Median("setup_s", "s", MetricKind::kEndToEnd, setup_s);
  report->Value("peak_rss_mb", "MB", MetricKind::kEndToEnd, rss.Peak());
  report->Median("op_p50_ms", "ms", MetricKind::kEndToEnd, batch_ms);
  report->Median("read_p50_ms", "ms", MetricKind::kNamed, batch_ms);
  report->P90("read_p90_ms", "ms", MetricKind::kNamed, batch_ms);
  report->Value("reads_per_s", "1/s", MetricKind::kNamed, reads / total_s,
                batch_ms.size());

  // Exact work counters per read over the fixed prefix.
  const double prefix_reads =
      static_cast<double>(after_prefix.reads - before.reads);
  const double upload_per_read =
      static_cast<double>(after_prefix.upload_bits - before.upload_bits) /
      prefix_reads;
  const double cells_per_read =
      static_cast<double>(after_prefix.expanded_cells - before.expanded_cells) /
      prefix_reads;
  report->Value("pir.upload_bits", "bits", MetricKind::kLayer, upload_per_read,
                kCounterOps * kBatch);
  report->Value("pir.expanded_cells", "count", MetricKind::kLayer,
                cells_per_read, kCounterOps * kBatch);
  report->Value(
      "pir.bytes_xored", "bytes", MetricKind::kLayer,
      static_cast<double>(after_prefix.bytes_xored - before.bytes_xored) /
          prefix_reads,
      kCounterOps * kBatch);
  // Upload is 64 seed bits plus d * side explicit bits per other replica.
  const tripriv::HypercubeGeometry& g = client.geometry();
  const double expected_upload =
      64.0 + static_cast<double>((g.num_servers() - 1) * g.axis_bits());
  ++report->checks;
  if (upload_per_read != expected_upload) {
    report->CheckFailed("pir.upload_bits per read is not 64 + (2^d - 1) * d * side");
  }
  report->Value("service.failovers", "count", MetricKind::kLayer,
                static_cast<double>(client.failovers()));
  report->Value("service.corrupt_detected", "count", MetricKind::kLayer,
                static_cast<double>(client.corrupt_answers_detected()));
  if (!options.trace) return;

  // --- Traced phase: the real batch, then its stages replayed.
  Rng replay_rng(options.seed ^ 0xBEEFull);
  std::vector<double> rest_us;
  std::vector<double> coverage;
  uint64_t replay_bytes = 0;
  size_t op_id = 0;
  auto traced_op = [&](size_t) {
    tracer->set_op(++op_id);
    const std::vector<size_t> indices = draw_batch();
    ScopedSpan op_span(tracer, "pir_read.batch", 0);
    std::vector<tripriv::Result<std::vector<uint8_t>>> results;
    const int64_t real = tracer->Time("service.execute_pir_batch", op_span.id(),
                                      [&] {
                                        results = executor.ExecutePirBatch(
                                            indices, Deadline(),
                                            tripriv::obs::kClassInteractive);
                                      });
    check_batch(indices, results);
    int64_t staged = 0;
    for (size_t index : indices) {
      const ReplayTimes t = ReplayRead(client, index, &replay_rng, &pool,
                                       tracer, op_span.id(), records[index],
                                       report);
      staged += t.staged;
      replay_bytes += t.bytes_xored;
    }
    rest_us.push_back(static_cast<double>(std::max<int64_t>(real - staged, 0)) *
                      1e-3);
    coverage.push_back(std::min(1.0, static_cast<double>(staged) /
                                         static_cast<double>(real)));
    return real;
  };
  const std::vector<double> traced_ms =
      RunTimedLoop(options.seconds - UntracedShare(options), 8, traced_op);

  const double per_read = 1.0 / static_cast<double>(kBatch);
  report->Value("pir.query_build_us", "us", MetricKind::kLayer,
                MedianSelfUs(*tracer, "pir.query_build") * per_read,
                traced_ms.size());
  report->Value("pir.axis_expand_us", "us", MetricKind::kLayer,
                MedianSelfUs(*tracer, "pir.axis_expand") * per_read,
                traced_ms.size());
  report->Value("pir.product_expand_us", "us", MetricKind::kLayer,
                MedianSelfUs(*tracer, "pir.product_expand") * per_read,
                traced_ms.size());
  report->Value("pir.sweep_us", "us", MetricKind::kLayer,
                MedianSelfUs(*tracer, "pir.sweep") * per_read,
                traced_ms.size());
  double sweep_total_us = 0.0;
  for (double us : PerOpSelfUs(*tracer, "pir.sweep")) sweep_total_us += us;
  report->Value("pir.sweep_gb_per_s", "GB/s", MetricKind::kLayer,
                static_cast<double>(replay_bytes) / (sweep_total_us * 1e3),
                traced_ms.size());
  report->Median("service.pir_batch_rest_us", "us", MetricKind::kLayer,
                 rest_us);
  report->Median("trace.coverage", "ratio", MetricKind::kLayer, coverage);
  AddTraceOverhead(batch_ms, traced_ms, report);

  // Parity preprocessing of one replica-sized database, timed standalone.
  std::vector<std::vector<uint8_t>> stored(
      records.size(), std::vector<uint8_t>(kRecordBytes + kChecksumBytes));
  for (size_t i = 0; i < records.size(); ++i) {
    std::memcpy(stored[i].data(), records[i].data(), kRecordBytes);
  }
  auto replica = tripriv::XorPirServer::Create(std::move(stored));
  Require(replica, "XorPirServer::Create");
  tracer->set_op(++op_id);
  const int64_t preprocess_ns =
      tracer->Time("pir.preprocess", 0, [&] { replica->Preprocess(); }, true);
  report->Value("pir.preprocess_ms", "ms", MetricKind::kLayer,
                static_cast<double>(preprocess_ns) * 1e-6);
}

}  // namespace tripriv_bench
