// Ablation D: PIR cost — what user privacy charges per query.
//
// google-benchmark microbenchmarks of the user-privacy substrate:
//   * XOR PIR vs database size at d = 1 (the 2-server scheme) and d = 2
//     (the 4-server cube, which trades servers for O(sqrt n) upload);
//   * single-server computational PIR (Paillier) vs database size;
//   * the plaintext baseline (no user privacy);
//   * private aggregate COUNT (the Section 3 query) vs grid size.
// Communication per query is reported as a counter next to the time.

#include <benchmark/benchmark.h>

#include "pir/aggregate.h"
#include "pir/cpir.h"
#include "pir/it_pir.h"
#include "pir/recursive_pir.h"
#include "table/datasets.h"

namespace tripriv {
namespace {

std::vector<std::vector<uint8_t>> MakeRecords(size_t n, size_t size) {
  std::vector<std::vector<uint8_t>> records(n, std::vector<uint8_t>(size));
  Rng rng(5);
  for (auto& r : records) {
    for (auto& b : r) b = static_cast<uint8_t>(rng.NextU64());
  }
  return records;
}

void BM_PlaintextRead(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto records = MakeRecords(n, 64);
  auto server = XorPirServer::Create(records);
  Rng rng(7);
  for (auto _ : state) {
    const size_t idx = static_cast<size_t>(rng.UniformU64(n));
    benchmark::DoNotOptimize(server->record(idx));
  }
  state.counters["upload_bits"] = 0;
}
BENCHMARK(BM_PlaintextRead)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

/// XOR PIR through the one read driver: d = 1 is the 2-server scheme
/// (64 + n bits up), d = 2 the 4-server cube (64 + 3 * 2 * sqrt(n)).
void BM_RecursivePir(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t d = static_cast<size_t>(state.range(1));
  auto records = MakeRecords(n, 64);
  auto g = HypercubeGeometry::Balanced(n, d);
  std::vector<XorPirServer> servers;
  for (size_t s = 0; s < g->num_servers(); ++s) {
    servers.push_back(*XorPirServer::Create(records));
  }
  std::vector<XorPirServer*> ptrs;
  for (auto& server : servers) ptrs.push_back(&server);
  Rng rng(9);
  PirStats stats;
  for (auto _ : state) {
    const size_t idx = static_cast<size_t>(rng.UniformU64(n));
    stats.Reset();  // PirStats accumulates; keep the counter per-query
    auto got = RecursivePirRead(ptrs, *g, idx, &rng, nullptr, &stats);
    benchmark::DoNotOptimize(got);
  }
  state.counters["upload_bits"] = static_cast<double>(stats.upload_bits);
}
BENCHMARK(BM_RecursivePir)
    ->ArgsProduct({{256, 1024, 4096, 16384}, {1, 2}})
    ->ArgNames({"n", "d"});

void BM_ComputationalPir(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<uint64_t> db(n);
  Rng rng(13);
  for (auto& v : db) v = rng.NextU64() >> 32;
  auto server = CpirServer::Create(db);
  auto client = CpirClient::Create(256, 15);
  for (auto _ : state) {
    const size_t idx = static_cast<size_t>(rng.UniformU64(n));
    auto got = client->Read(&*server, idx);
    benchmark::DoNotOptimize(got);
  }
  state.counters["upload_ctexts"] =
      static_cast<double>(client->last_upload_ciphertexts());
}
BENCHMARK(BM_ComputationalPir)->Arg(64)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_PrivateAggregateCount(benchmark::State& state) {
  const int64_t step = state.range(0);
  DataTable data = MakeClinicalTrial(200, 17);
  std::vector<GridAxis> grid{{"height", 140, 205, step},
                             {"weight", 40, 160, step}};
  auto server = PrivateAggregateServer::Build(data, grid);
  auto client = PrivateAggregateClient::Create(256, 19);
  Predicate pred = Predicate::And(
      Predicate::Compare("height", CompareOp::kLt, Value(165)),
      Predicate::Compare("weight", CompareOp::kGt, Value(105)));
  for (auto _ : state) {
    auto count = client->Count(*server, pred);
    benchmark::DoNotOptimize(count);
  }
  state.counters["grid_cells"] = static_cast<double>(server->num_cells());
}
BENCHMARK(BM_PrivateAggregateCount)->Arg(13)->Arg(5)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tripriv

BENCHMARK_MAIN();
