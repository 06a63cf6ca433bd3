// Dense preprocessing layout: XorPirServer::ComputeAnswer must return the
// same bytes with and without Preprocess, and both must equal a plain
// reference XOR, for every record size the stride rounds differently,
// record counts odd, even and off the 8-bit selection bytes, selections
// that stress each end of the set-bit walk, and 0/1/2/8 workers (this file
// carries the parallel label, so the TSan leg sweeps shards concurrently).

#include <gtest/gtest.h>

#include <memory>

#include "pir/it_pir.h"
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
  for (size_t size : {1u, 7u, 8u, 9u, 64u, 72u, 100u}) {
    // Counts past 32 KiB of records take the sharded path; the small ones
    // stay serial.
    const size_t sharded = (32768 / size + 7) / 8 * 8;
    for (size_t n : {size_t{1}, size_t{13}, size_t{30}, size_t{64},
                     sharded + 1, sharded + 2, sharded + 8}) {
      const auto records = MakeRecords(n, size, 1000 * size + n);
      auto plain = XorPirServer::Create(records);
      auto dense = XorPirServer::Create(records);
      ASSERT_TRUE(plain.ok() && dense.ok());
      dense->Preprocess();
      dense->Preprocess();  // idempotent: the second call keeps the layout
      ASSERT_TRUE(dense->preprocessed());
      EXPECT_FALSE(plain->preprocessed());
      EXPECT_EQ(plain->preprocess_bytes(), 0u);
      // Record size rounded up to whole words, nothing more: the padding
      // never reaches an answer because only record_size() bytes are XORed.
      EXPECT_EQ(dense->preprocess_bytes(), n * ((size + 7) / 8 * 8))
          << "size=" << size << " n=" << n;
      const auto selections = Selections(n, &rng);
      for (size_t q = 0; q < selections.size(); ++q) {
        const auto expected = ReferenceAnswer(records, selections[q]);
        for (const auto& pool : pools) {
          auto a = plain->ComputeAnswer(selections[q], pool.get());
          auto b = dense->ComputeAnswer(selections[q], pool.get());
          ASSERT_TRUE(a.ok() && b.ok());
          EXPECT_EQ(*a, expected) << "plain size=" << size << " n=" << n
                                  << " selection=" << q
                                  << " threads=" << pool->num_threads();
          EXPECT_EQ(*b, expected) << "dense size=" << size << " n=" << n
                                  << " selection=" << q
                                  << " threads=" << pool->num_threads();
        }
      }
    }
  }
}

}  // namespace
}  // namespace tripriv
