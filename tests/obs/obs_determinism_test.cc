// Observability determinism (`ctest -L obs` + `-L parallel`): the exported
// snapshot of a fully instrumented serving run — Prometheus text, JSON, and
// the trace export — must be BYTE-identical at 0, 1, 2, and 8 worker
// threads. Instruments ride the same execution discipline as the WAL
// (pushes happen only on the serial serving path, parallel code writes only
// per-shard slots merged in shard order), so the thread count must be
// invisible in every exported byte.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/budget.h"
#include "obs/export.h"
#include "obs/instruments.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "querydb/query.h"
#include "service/batch_executor.h"
#include "service/pir_failover.h"
#include "service/query_service.h"
#include "table/datasets.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace tripriv {
namespace {

const size_t kThreadCounts[] = {0, 1, 2, 8};

StatQuery Parse(const std::string& sql) {
  auto query = ParseQuery(sql);
  TRIPRIV_CHECK(query.ok()) << sql;
  return std::move(query).value();
}

struct Exports {
  std::string prometheus;
  std::string json;
  std::string trace;
};

/// One full instrumented run: a faulty statistical batch (protected, DP,
/// and refused answers; WAL appends; epsilon spends), a PIR batch through
/// a failover client with one corrupting server, then a publish step.
Exports RunWorkload(size_t threads) {
  const std::vector<StatQuery> batch = {
      Parse("SELECT SUM(blood_pressure) FROM t WHERE height < 172"),
      Parse("SELECT COUNT(*) FROM t WHERE weight > 80"),
      Parse("SELECT SUM(blood_pressure) FROM t WHERE height < 171"),
      Parse("SELECT AVG(weight) FROM t WHERE height >= 160"),
      Parse("SELECT COUNT(*) FROM t WHERE height < 165 AND weight > 105"),
      Parse("SELECT SUM(weight) FROM t WHERE blood_pressure > 100"),
  };
  QueryServiceConfig config;
  config.protection.mode = ProtectionMode::kAudit;
  config.protection.min_query_set_size = 2;
  config.faults.backend_fault_rate = 0.3;

  MemWalIo wal;
  auto service = QueryService::Create(PaperDataset2(), config, &wal);
  TRIPRIV_CHECK(service.ok());

  obs::MetricsConfig metrics_config;
  metrics_config.shards = threads == 0 ? 1 : threads;
  obs::MetricsRegistry registry(metrics_config);
  obs::TraceRecorder trace(service->sim_clock());
  obs::PrivacyBudgetAccountant accountant(&registry);
  auto metrics = obs::ServiceMetrics::Create(&registry, &trace, &accountant);
  TRIPRIV_CHECK(metrics.ok());
  service->AttachInstruments(&*metrics);

  ThreadPool pool(threads);
  BatchExecutor executor(&*service, &pool);
  executor.ExecuteQueryBatch(batch);

  std::vector<std::vector<uint8_t>> records(96, std::vector<uint8_t>(16));
  Rng fill(61);
  for (auto& record : records) {
    for (auto& byte : record) byte = static_cast<uint8_t>(fill.NextU64());
  }
  SimClock pir_clock;
  auto pir = FailoverPirClient::Build(records, /*num_pairs=*/2, RetryPolicy{},
                                      &pir_clock, /*seed=*/62);
  TRIPRIV_CHECK(pir.ok());
  PirServerFault corrupt;
  corrupt.corrupt_rate = 1.0;
  pir->InjectFault(1, corrupt);
  service->AttachPirBackend(&*pir);
  executor.ExecutePirBatch({7, 50, 7, 95, 0}, Deadline());

  service->PublishMetrics();
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  return Exports{obs::ToPrometheusText(snapshot), obs::ToJson(snapshot),
                 obs::TraceToJson(trace)};
}

TEST(ObsDeterminismTest, ExportsAreByteIdenticalAtAnyThreadCount) {
  const Exports ref = RunWorkload(0);
  // The workload actually exercised the instruments.
  EXPECT_NE(ref.prometheus.find("tripriv_service_answers_total"),
            std::string::npos);
  EXPECT_NE(ref.prometheus.find("tripriv_wal_fsync_ticks_bucket"),
            std::string::npos);
  EXPECT_NE(ref.json.find("tripriv_privacy_epsilon_spent"),
            std::string::npos);
  EXPECT_NE(ref.trace.find("\"name\":\"submit\""), std::string::npos);
  EXPECT_NE(ref.trace.find("\"name\":\"pir_batch\""), std::string::npos);

  for (size_t threads : kThreadCounts) {
    const Exports got = RunWorkload(threads);
    EXPECT_EQ(got.prometheus, ref.prometheus) << "threads=" << threads;
    EXPECT_EQ(got.json, ref.json) << "threads=" << threads;
    EXPECT_EQ(got.trace, ref.trace) << "threads=" << threads;
  }
}

TEST(ObsDeterminismTest, ShardCountIsInvisibleInTheSnapshot) {
  // Same serial workload, different slot layouts: a registry sized for 8
  // shards must export the same bytes as a 1-shard registry.
  auto run = [](size_t shards) {
    obs::MetricsConfig config;
    config.shards = shards;
    obs::MetricsRegistry registry(config);
    auto counter = registry.RegisterCounter("tripriv_events_total", "h");
    auto histogram =
        registry.RegisterHistogram("tripriv_ticks", "h", {2, 8, 32});
    TRIPRIV_CHECK(counter.ok() && histogram.ok());
    for (uint64_t i = 0; i < 100; ++i) {
      (*counter)->Add(i % 7, i % shards);
      (*histogram)->Observe(i % 40, i % shards);
    }
    return obs::ToPrometheusText(registry.Snapshot());
  };
  const std::string ref = run(1);
  EXPECT_EQ(run(2), ref);
  EXPECT_EQ(run(8), ref);
}

}  // namespace
}  // namespace tripriv
