// The dense layout, XorPirServer's only record store: ComputeAnswer must
// equal a plain reference XOR for every record size the stride rounds
// differently, sizes on both sides of the 256-byte sweep tile and past two
// tiles, record counts odd, even and off the 8-bit selection bytes,
// selections that stress each end of the set-bit walk, and 0/1/2/8 workers.
// A failover client holds exactly one layout per physical server, each
// storing every payload with its little-endian FNV-1a suffix, and a copied
// server shares nothing with its source. This file carries the parallel
// label, so the TSan leg sweeps shards concurrently.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "pir/it_pir.h"
#include "service/pir_failover.h"
#include "util/checksum.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace tripriv {
namespace {

std::vector<std::vector<uint8_t>> MakeRecords(size_t n, size_t size,
                                              uint64_t seed) {
  std::vector<std::vector<uint8_t>> records(n, std::vector<uint8_t>(size));
  Rng rng(seed);
  for (auto& r : records) {
    for (auto& b : r) b = static_cast<uint8_t>(rng.NextU64());
  }
  return records;
}

bool GetBit(const std::vector<uint8_t>& bits, size_t i) {
  return (bits[i / 8] >> (i % 8)) & 1u;
}

/// XOR of the selected records, one selection bit at a time.
std::vector<uint8_t> ReferenceAnswer(
    const std::vector<std::vector<uint8_t>>& records,
    const std::vector<uint8_t>& selection) {
  std::vector<uint8_t> acc(records[0].size(), 0);
  for (size_t i = 0; i < records.size(); ++i) {
    if (!GetBit(selection, i)) continue;
    for (size_t b = 0; b < acc.size(); ++b) acc[b] ^= records[i][b];
  }
  return acc;
}

/// First record of each shard after the first, as ThreadPool::ParallelFor
/// splits [0, n) into `shards` contiguous shards.
std::vector<size_t> ShardStarts(size_t n, size_t shards) {
  std::vector<size_t> starts;
  const size_t base = n / shards;
  const size_t extra = n % shards;
  for (size_t s = 1; s < shards; ++s) {
    starts.push_back(s * base + (s < extra ? s : extra));
  }
  return starts;
}

/// The selection shapes the sweep treats differently.
std::vector<std::vector<uint8_t>> Selections(size_t n, Rng* rng) {
  const size_t bytes = (n + 7) / 8;
  std::vector<std::vector<uint8_t>> out;
  out.emplace_back(bytes, 0);  // all-zero
  std::vector<uint8_t> all(bytes, 0);
  for (size_t i = 0; i < n; ++i) FlipSelectionBit(&all, i);
  out.push_back(all);  // all-one, padding zero
  std::vector<uint8_t> last(bytes, 0);
  FlipSelectionBit(&last, n - 1);
  out.push_back(last);  // only bit n - 1
  out.push_back(RandomSelectionBits(n, rng));
  // Both sides of every shard boundary at 2 and 8 shards, plus both ends.
  std::vector<uint8_t> edges(bytes, 0);
  for (size_t shards : {size_t{2}, size_t{8}}) {
    if (n < shards) continue;
    for (size_t start : ShardStarts(n, shards)) {
      edges[(start - 1) / 8] |= static_cast<uint8_t>(1u << ((start - 1) % 8));
      edges[start / 8] |= static_cast<uint8_t>(1u << (start % 8));
    }
  }
  edges[0] |= 1u;
  edges[(n - 1) / 8] |= static_cast<uint8_t>(1u << ((n - 1) % 8));
  out.push_back(edges);
  return out;
}

TEST(PreprocessLayoutTest, DenseAndPlainAnswersAreByteIdentical) {
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (size_t threads : {0u, 1u, 2u, 8u}) {
    pools.push_back(std::make_unique<ThreadPool>(threads));
  }
  Rng rng(71);
  for (size_t size : {1u, 7u, 8u, 9u, 64u, 72u, 100u, 255u, 256u, 257u, 520u}) {
    // Counts past 32 KiB of records take the sharded path; the small ones
    // stay serial.
    const size_t sharded = (32768 / size + 7) / 8 * 8;
    for (size_t n : {size_t{1}, size_t{13}, size_t{30}, size_t{64},
                     sharded + 1, sharded + 2, sharded + 8}) {
      const auto records = MakeRecords(n, size, 1000 * size + n);
      auto server = XorPirServer::Create(records);
      ASSERT_TRUE(server.ok());
      // Record size rounded up to whole words, nothing more: the padding
      // never reaches an answer because only record_size() bytes are XORed.
      EXPECT_EQ(server->preprocess_bytes(), n * ((size + 7) / 8 * 8))
          << "size=" << size << " n=" << n;
      const auto selections = Selections(n, &rng);
      for (size_t q = 0; q < selections.size(); ++q) {
        const auto expected = ReferenceAnswer(records, selections[q]);
        for (const auto& pool : pools) {
          auto answer = server->ComputeAnswer(selections[q], pool.get());
          ASSERT_TRUE(answer.ok());
          EXPECT_EQ(*answer, expected) << "size=" << size << " n=" << n
                                       << " selection=" << q
                                       << " threads=" << pool->num_threads();
        }
      }
    }
  }
}

TEST(PreprocessLayoutTest, EveryReplicaOwnsOneLayoutAndCopiesShareNothing) {
  // 1000 records of 27 bytes, 35 with the checksum suffix: a stored stride
  // of 40 and 35,000 stored bytes, so a 2-worker pool shards each sweep.
  const size_t n = 1000;
  const size_t size = 27;
  const size_t groups = 2;
  const size_t dimensions = 2;
  const size_t stride = (size + 8 + 7) / 8 * 8;  // checksum suffix stored
  const auto records = MakeRecords(n, size, 5);
  for (size_t threads : {0u, 2u}) {
    ThreadPool pool(threads);
    SimClock clock;
    auto client = FailoverPirClient::BuildRecursive(
        records, groups, dimensions, RetryPolicy{}, &clock, /*seed=*/17,
        /*preprocess=*/false);
    ASSERT_TRUE(client.ok());
    // One dense layout per physical server, built without `preprocess`.
    EXPECT_EQ(client->preprocess_bytes(),
              groups * (size_t{1} << dimensions) * n * stride);
    for (size_t i = 0; i < n; ++i) {
      auto read = client->Read(i, Deadline(), /*tenant_class=*/0, &pool);
      ASSERT_TRUE(read.ok()) << "threads=" << threads << " record " << i;
      EXPECT_EQ(*read, records[i]) << "threads=" << threads << " record " << i;
    }
  }

  // A copied server owns its layout, fault, counters and observation ring.
  auto source = XorPirServer::Create(records);
  ASSERT_TRUE(source.ok());
  source->EnableObservationLog(4);
  XorPirServer copy = *source;
  copy.InjectComputeFault(Status::Unavailable("copy diverged"));
  copy.EnableObservationLog(2);
  Rng rng(73);
  const auto selection = RandomSelectionBits(n, &rng);
  auto refused = copy.Answer(selection);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  for (int q = 0; q < 3; ++q) copy.ObserveQuery(selection);
  EXPECT_EQ(copy.queries_answered(), 3u);
  EXPECT_EQ(copy.num_observed(), 2u);
  EXPECT_EQ(source->queries_answered(), 0u);
  EXPECT_EQ(source->num_observed(), 0u);
  auto answer = source->Answer(selection);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(*answer, ReferenceAnswer(records, selection));
  EXPECT_EQ(source->queries_answered(), 1u);
  EXPECT_EQ(source->num_observed(), 1u);
  EXPECT_EQ(copy.queries_answered(), 3u);
  copy.InjectComputeFault(Status::OK());
  auto disarmed = copy.ComputeAnswer(selection);
  ASSERT_TRUE(disarmed.ok());
  EXPECT_EQ(*disarmed, *answer);

  // record(i) is exactly record i's bytes: no stride padding.
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(source->record(i), records[i]) << "record " << i;
    EXPECT_EQ(copy.record(i), records[i]) << "record " << i;
  }
}

TEST(PreprocessLayoutTest, StoredRecordsArePayloadThenLittleEndianFnv1a) {
  for (size_t size : {0u, 13u, 64u}) {
    const auto records = MakeRecords(70, size, 9 + size);
    SimClock clock;
    auto client = FailoverPirClient::BuildRecursive(
        records, /*num_groups=*/2, /*dimensions=*/2, RetryPolicy{}, &clock,
        /*seed=*/3);
    ASSERT_TRUE(client.ok()) << "size=" << size;
    const size_t servers = client->num_groups() * client->group_size();
    for (size_t s = 0; s < servers; ++s) {
      ASSERT_EQ(client->server(s).record_size(), size + 8);
      for (size_t i = 0; i < records.size(); ++i) {
        std::vector<uint8_t> expected = records[i];
        const uint64_t sum = Fnv1a64(records[i].data(), records[i].size());
        for (size_t b = 0; b < 8; ++b) {
          expected.push_back(static_cast<uint8_t>(sum >> (8 * b)));
        }
        EXPECT_EQ(client->server(s).record(i), expected)
            << "size=" << size << " server=" << s << " record=" << i;
      }
    }
  }

  // Refusals keep their codes, messages and order: the group count, then
  // the database (empty, then ragged), then the geometry.
  SimClock clock;
  const std::vector<std::vector<uint8_t>> empty;
  const std::vector<std::vector<uint8_t>> ragged = {{1, 2}, {3}};
  const std::vector<std::vector<uint8_t>> even = {{1, 2}, {3, 4}};
  struct Refusal {
    const std::vector<std::vector<uint8_t>>* records;
    size_t groups;
    size_t dimensions;
    const char* message;
  };
  for (const Refusal& r :
       {Refusal{&ragged, 0, 9, "need at least one server group"},
        Refusal{&empty, 1, 9, "empty database"},
        Refusal{&ragged, 1, 9, "records must have equal length"},
        Refusal{&even, 1, 9, "hypercube dimension must be in [1, 8]"}}) {
    auto refused = FailoverPirClient::BuildRecursive(
        *r.records, r.groups, r.dimensions, RetryPolicy{}, &clock, 3);
    ASSERT_FALSE(refused.ok()) << r.message;
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(refused.status().message(), r.message);
  }
  // Both forms of XorPirServer::Create refuse alike.
  auto write_nothing = [](size_t, uint8_t*) {};
  for (const auto& [refused, message] :
       {std::pair{XorPirServer::Create(empty), "empty database"},
        std::pair{XorPirServer::Create({{}, {1}}), "records must be non-empty"},
        std::pair{XorPirServer::Create(ragged),
                  "records must have equal length"},
        std::pair{XorPirServer::Create(0, 8, write_nothing), "empty database"},
        std::pair{XorPirServer::Create(3, 0, write_nothing),
                  "records must be non-empty"},
        std::pair{XorPirServer::Create(SIZE_MAX / 8 + 1, 8, write_nothing),
                  "database too large"},
        std::pair{XorPirServer::Create(1, SIZE_MAX, write_nothing),
                  "database too large"}}) {
    ASSERT_FALSE(refused.ok()) << message;
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(refused.status().message(), message);
  }
}

}  // namespace
}  // namespace tripriv
