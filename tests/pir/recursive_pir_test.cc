// Recursive d-dimensional PIR — the one XOR-PIR read driver, d = 1 being
// the 2-server scheme and d = 2 the 4-server cube: geometry, seed
// expansion, retrieval, upload, canonical flat transcripts (padding and
// overhang), row-wise product expansion against a per-cell reference,
// serial vs pooled reads, session reuse, epoch invalidation, and the
// thread-count invariance contract (this file carries the parallel label —
// the TSan leg's payload for `ctest -L pir`).

#include <gtest/gtest.h>

#include <memory>

#include "pir/epoch_pir.h"
#include "pir/recursive_pir.h"
#include "service/epoch_service.h"
#include "table/datasets.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace tripriv {
namespace {

std::vector<std::vector<uint8_t>> MakeRecords(size_t n, size_t size) {
  std::vector<std::vector<uint8_t>> records(n, std::vector<uint8_t>(size));
  Rng rng(99);
  for (auto& r : records) {
    for (auto& b : r) b = static_cast<uint8_t>(rng.NextU64());
  }
  return records;
}

/// 2^d independent replicas of `records` plus the pointer vector the read
/// API takes.
struct Fleet {
  std::vector<XorPirServer> servers;
  std::vector<XorPirServer*> ptrs;
};

Fleet MakeFleet(const std::vector<std::vector<uint8_t>>& records, size_t d) {
  Fleet fleet;
  const size_t count = size_t{1} << d;
  fleet.servers.reserve(count);
  for (size_t s = 0; s < count; ++s) {
    auto server = XorPirServer::Create(records);
    TRIPRIV_CHECK(server.ok());
    fleet.servers.push_back(std::move(*server));
  }
  for (auto& server : fleet.servers) fleet.ptrs.push_back(&server);
  return fleet;
}

bool GetBit(const std::vector<uint8_t>& bits, size_t i) {
  return (bits[i / 8] >> (i % 8)) & 1u;
}

TEST(HypercubeGeometryTest, BalancedPicksSmallestSide) {
  struct Case {
    size_t n, d, side;
  };
  for (const Case& c : std::initializer_list<Case>{{1, 1, 1},
                                                   {1024, 2, 32},
                                                   {1025, 2, 33},
                                                   {27, 3, 3},
                                                   {28, 3, 4},
                                                   {30, 2, 6},
                                                   {1048576, 2, 1024},
                                                   {1048576, 3, 102}}) {
    auto g = HypercubeGeometry::Balanced(c.n, c.d);
    ASSERT_TRUE(g.ok()) << c.n << " " << c.d;
    EXPECT_EQ(g->side, c.side) << c.n << " " << c.d;
    EXPECT_EQ(g->num_servers(), size_t{1} << c.d);
  }
  EXPECT_FALSE(HypercubeGeometry::Balanced(0, 2).ok());
  EXPECT_FALSE(HypercubeGeometry::Balanced(10, 0).ok());
  EXPECT_FALSE(HypercubeGeometry::Balanced(10, 9).ok());
}

TEST(HypercubeGeometryTest, CoordinatesRoundTrip) {
  auto g = HypercubeGeometry::Balanced(30, 3);  // side 4, 64 cells
  ASSERT_TRUE(g.ok());
  for (size_t i = 0; i < g->n; ++i) {
    const auto coords = g->Coordinates(i);
    ASSERT_EQ(coords.size(), 3u);
    size_t back = 0;
    for (size_t k = 0; k < 3; ++k) back = back * g->side + coords[k];
    EXPECT_EQ(back, i);
  }
}

TEST(RecursivePirTest, RetrievesEveryIndexAtD2AndD3) {
  // 30 records: side 30 at d=1 (the 2-server scheme), side 6 at d=2 (6
  // overhang cells, the 4-server cube) and side 4 at d=3 (34 overhang
  // cells) — awkward on purpose.
  auto records = MakeRecords(30, 16);
  for (size_t d : {1u, 2u, 3u}) {
    auto g = HypercubeGeometry::Balanced(records.size(), d);
    ASSERT_TRUE(g.ok());
    Fleet fleet = MakeFleet(records, d);
    Rng rng(5 + d);
    for (size_t i = 0; i < records.size(); ++i) {
      auto got = RecursivePirRead(fleet.ptrs, *g, i, &rng);
      ASSERT_TRUE(got.ok()) << "d=" << d << " i=" << i;
      EXPECT_EQ(*got, records[i]) << "d=" << d << " i=" << i;
    }
  }
}

TEST(RecursivePirTest, UploadIsSeedPlusAxisBits) {
  auto records = MakeRecords(4096, 8);
  // Server 0 gets the 64-bit seed; the other 2^d - 1 get d*side explicit
  // bits: 64 + n at d = 1 (side 4096), 64 + 3*2*64 at d = 2 (side 64).
  struct Case {
    size_t d, side, upload;
  };
  for (const Case& c : std::initializer_list<Case>{{1, 4096, 64 + 4096},
                                                   {2, 64, 64 + 3 * 2 * 64}}) {
    auto g = HypercubeGeometry::Balanced(records.size(), c.d);
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(g->side, c.side);
    Fleet fleet = MakeFleet(records, c.d);
    Rng rng(7);
    PirStats stats;
    ASSERT_TRUE(
        RecursivePirRead(fleet.ptrs, *g, 123, &rng, nullptr, &stats).ok());
    EXPECT_EQ(stats.upload_bits, c.upload) << "d=" << c.d;
    EXPECT_EQ(stats.download_bits, (size_t{1} << c.d) * 8 * 8u);
    // Sublinear in n from d = 2: the textbook 2-server read ships 2n bits.
    if (c.d >= 2) {
      EXPECT_LT(stats.upload_bits, 2 * records.size() / 10);
    }
  }
}

TEST(RecursivePirTest, SeedExpansionIsPureAndDrawsOneWord) {
  auto g = HypercubeGeometry::Balanced(100, 2);
  ASSERT_TRUE(g.ok());
  const auto once = ExpandAxisSelections(42, *g);
  const auto twice = ExpandAxisSelections(42, *g);
  EXPECT_EQ(once, twice);
  ASSERT_EQ(once.size(), 2u);

  // BuildHypercubeQueries draws exactly ONE word from the caller's rng:
  // two generators from one seed stay in lockstep iff the counts match.
  Rng rng_a(31);
  Rng rng_b(31);
  ASSERT_TRUE(BuildHypercubeQueries(*g, 55, &rng_a).ok());
  (void)rng_b.NextU64();
  EXPECT_EQ(rng_a.NextU64(), rng_b.NextU64());
}

TEST(RecursivePirTest, OnlyTheUnflippedServerHoldsTheSeed) {
  // Privacy invariant: a seed plus a flipped axis bitmap would let one
  // replica difference out the target coordinate, so the seed form must go
  // only to server 0, whose explicit expansion matches the base bitmaps
  // every other server's bitmaps are one flip away from. At d = 1 that is
  // the 2-server scheme: server 1 gets the seed's subset with the target
  // flipped.
  const size_t index = 57;
  for (size_t d : {1u, 2u}) {
    auto g = HypercubeGeometry::Balanced(100, d);
    ASSERT_TRUE(g.ok());
    Rng rng(13);
    Rng shadow(13);
    auto queries = BuildHypercubeQueries(*g, index, &rng);
    ASSERT_TRUE(queries.ok());
    ASSERT_EQ(queries->size(), size_t{1} << d);
    EXPECT_TRUE((*queries)[0].seed_only);
    const auto base = ExpandAxisSelections(shadow.NextU64(), *g);
    const auto coords = g->Coordinates(index);
    for (size_t s = 1; s < queries->size(); ++s) {
      const auto& q = (*queries)[s];
      EXPECT_FALSE(q.seed_only);
      ASSERT_EQ(q.axis_bits.size(), d);
      for (size_t k = 0; k < d; ++k) {
        auto expected = base[k];
        if ((s >> k) & 1u) FlipSelectionBit(&expected, coords[k]);
        EXPECT_EQ(q.axis_bits[k], expected)
            << "d=" << d << " s=" << s << " k=" << k;
      }
    }
  }
}

TEST(RecursivePirTest, FlatExpansionIsCanonicalAcrossPaddingAndOverhang) {
  // side = 6: axis bitmaps carry 2 padding bits per byte, and the 36-cell
  // square overhangs a 30-record database by 6 cells. Observed flat
  // queries must keep padding bits zero and never select overhang cells,
  // or bytes_xored() popcount accounting counts phantom work.
  auto records = MakeRecords(30, 8);
  auto g = HypercubeGeometry::Balanced(records.size(), 2);
  ASSERT_TRUE(g.ok());
  ASSERT_EQ(g->side, 6u);
  Fleet fleet = MakeFleet(records, 2);
  for (auto* s : fleet.ptrs) s->EnableObservationLog(8);
  Rng rng(17);
  uint64_t selected_bits = 0;
  for (size_t i : {0u, 7u, 29u}) {
    auto got = RecursivePirRead(fleet.ptrs, *g, i, &rng);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, records[i]);
  }
  for (auto* server : fleet.ptrs) {
    ASSERT_EQ(server->num_observed(), 3u);
    for (size_t q = 0; q < server->num_observed(); ++q) {
      const auto& flat = server->observed_query(q);
      ASSERT_EQ(flat.size(), (records.size() + 7) / 8);
      // Padding bits of the last byte are zero (30 % 8 == 6).
      EXPECT_EQ(flat.back() & ~((1u << (30 % 8)) - 1u), 0u);
      for (size_t bit = 0; bit < records.size(); ++bit) {
        selected_bits += GetBit(flat, bit);
      }
    }
  }
  // bytes_xored is derived from exactly those canonical selections.
  uint64_t total_xored = 0;
  for (auto* server : fleet.ptrs) total_xored += server->bytes_xored();
  EXPECT_EQ(total_xored, selected_bits * 8u);
}

/// Cell-by-cell reference for ExpandProductSelection: bit i set iff every
/// axis bitmap selects coordinate k of cell i. Returns the set-cell count.
uint64_t ReferenceProduct(const std::vector<std::vector<uint8_t>>& axes,
                          const HypercubeGeometry& g,
                          std::vector<uint8_t>* flat) {
  flat->assign((g.n + 7) / 8, 0);
  uint64_t cells = 0;
  for (size_t i = 0; i < g.n; ++i) {
    const auto coords = g.Coordinates(i);
    bool selected = true;
    for (size_t k = 0; k < g.d; ++k) selected &= GetBit(axes[k], coords[k]);
    if (!selected) continue;
    FlipSelectionBit(flat, i);
    ++cells;
  }
  return cells;
}

TEST(RecursivePirTest, RowWiseExpansionMatchesPerCellReference) {
  // Whole innermost rows are ORed in at arbitrary bit offsets, 64 bits at
  // a time and then byte by byte; only a last row overhanging n goes cell
  // by cell. Sides with and without a partial axis byte, rows of one, one
  // and a bit, and two and a bit words, n = side^d (no overhang) and
  // n = side^d - side + 3 (the last row overhangs), and axes that are
  // random, all-one, all-zero, or carry stray padding bits the expansion
  // must ignore.
  struct Case {
    size_t d, side;
  };
  for (const Case& c : std::initializer_list<Case>{{1, 8},
                                                   {1, 13},
                                                   {1, 64},
                                                   {1, 71},
                                                   {1, 130},
                                                   {2, 8},
                                                   {2, 6},
                                                   {2, 13},
                                                   {2, 16},
                                                   {2, 64},
                                                   {2, 71},
                                                   {2, 130},
                                                   {3, 8},
                                                   {3, 5},
                                                   {3, 9},
                                                   {4, 8},
                                                   {4, 6},
                                                   {4, 5}}) {
    size_t cube = 1;
    for (size_t k = 0; k < c.d; ++k) cube *= c.side;
    for (size_t n : {cube, cube - c.side + 3}) {
      HypercubeGeometry g;
      g.n = n;
      g.side = c.side;
      g.d = c.d;
      const size_t bytes = (c.side + 7) / 8;
      std::vector<std::vector<std::vector<uint8_t>>> axis_sets;
      for (uint64_t seed : {1u, 2u, 3u}) {
        axis_sets.push_back(ExpandAxisSelections(seed, g));
      }
      std::vector<std::vector<uint8_t>> ones(c.d,
                                             std::vector<uint8_t>(bytes, 0));
      for (auto& axis : ones) {
        for (size_t i = 0; i < c.side; ++i) FlipSelectionBit(&axis, i);
      }
      axis_sets.push_back(ones);
      axis_sets.emplace_back(c.d, std::vector<uint8_t>(bytes, 0));
      auto padded = ExpandAxisSelections(4, g);
      for (auto& axis : padded) axis.back() |= 0x80;
      axis_sets.push_back(padded);
      for (size_t a = 0; a < axis_sets.size(); ++a) {
        std::vector<uint8_t> expected;
        const uint64_t want = ReferenceProduct(axis_sets[a], g, &expected);
        std::vector<uint8_t> flat(3, 0xFF);  // stale scratch is overwritten
        const uint64_t got = ExpandProductSelection(axis_sets[a], g, &flat);
        EXPECT_EQ(flat, expected)
            << "d=" << c.d << " side=" << c.side << " n=" << n << " axes=" << a;
        EXPECT_EQ(got, want)
            << "d=" << c.d << " side=" << c.side << " n=" << n << " axes=" << a;
      }
    }
  }
}

TEST(RecursivePirTest, RejectsNonCanonicalAxisPadding) {
  auto records = MakeRecords(30, 8);
  auto g = HypercubeGeometry::Balanced(records.size(), 2);
  ASSERT_TRUE(g.ok());
  auto server = XorPirServer::Create(records);
  ASSERT_TRUE(server.ok());
  HypercubeQuery query;
  query.axis_bits = ExpandAxisSelections(3, *g);
  auto ok = AnswerHypercubeQuery(&*server, query, *g);
  EXPECT_TRUE(ok.ok());
  query.axis_bits[1].back() |= 0x80;  // bit 7 of a 6-bit axis byte
  auto bad = AnswerHypercubeQuery(&*server, query, *g);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(RecursivePirTest, PreprocessedAnswersAreByteIdentical) {
  // Every index, odd and even record counts, read serially and with a
  // pool from two fleets over the same records: the same bytes, and the
  // record itself. Each replica holds one 24-byte-strided layout.
  for (size_t n : {29u, 30u, 31u}) {
    auto records = MakeRecords(n, 24);
    auto g = HypercubeGeometry::Balanced(n, 2);
    ASSERT_TRUE(g.ok());
    Fleet serial = MakeFleet(records, 2);
    Fleet pooled = MakeFleet(records, 2);
    EXPECT_EQ(pooled.ptrs[0]->preprocess_bytes(), n * 24);
    ThreadPool pool(2);
    Rng rng_serial(23);
    Rng rng_pooled(23);
    for (size_t i = 0; i < n; ++i) {
      auto a = RecursivePirRead(serial.ptrs, *g, i, &rng_serial);
      auto b = RecursivePirRead(pooled.ptrs, *g, i, &rng_pooled, &pool);
      ASSERT_TRUE(a.ok() && b.ok()) << "n=" << n << " i=" << i;
      EXPECT_EQ(*a, *b) << "n=" << n << " i=" << i;
      EXPECT_EQ(*a, records[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(RecursivePirTest, TranscriptsAreByteIdenticalAtAnyThreadCount) {
  auto records = MakeRecords(61, 32);
  auto g = HypercubeGeometry::Balanced(records.size(), 2);
  ASSERT_TRUE(g.ok());
  const std::vector<size_t> indices = {0, 17, 5, 60, 17, 33};

  std::vector<std::vector<uint8_t>> serial_answers;
  std::vector<std::vector<std::vector<uint8_t>>> serial_views;
  for (size_t threads : {0u, 1u, 2u, 8u}) {
    Fleet fleet = MakeFleet(records, 2);
    for (auto* s : fleet.ptrs) s->EnableObservationLog(indices.size());
    Rng rng(29);
    PirSessionRegistry sessions;
    auto* session = sessions.Establish(/*tenant_class=*/1, *g, /*epoch=*/1);
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    auto answers = RecursivePirBatchRead(fleet.ptrs, *g, indices, &rng,
                                         pool.get(), nullptr, session);
    ASSERT_TRUE(answers.ok()) << "threads=" << threads;
    std::vector<std::vector<std::vector<uint8_t>>> views;
    for (auto* server : fleet.ptrs) {
      std::vector<std::vector<uint8_t>> view;
      for (size_t q = 0; q < server->num_observed(); ++q) {
        view.push_back(server->observed_query(q));
      }
      views.push_back(std::move(view));
    }
    if (threads == 0) {
      serial_answers = *answers;
      serial_views = views;
      for (size_t i = 0; i < indices.size(); ++i) {
        EXPECT_EQ(serial_answers[i], records[indices[i]]) << "read " << i;
      }
      continue;
    }
    EXPECT_EQ(*answers, serial_answers) << "threads=" << threads;
    EXPECT_EQ(views, serial_views) << "threads=" << threads;
  }
}

TEST(PirSessionRegistryTest, SessionsReuseScratchAndSurviveCounters) {
  auto records = MakeRecords(50, 8);
  auto g = HypercubeGeometry::Balanced(records.size(), 2);
  ASSERT_TRUE(g.ok());
  Fleet fleet = MakeFleet(records, 2);
  PirSessionRegistry sessions;
  auto* session = sessions.Establish(/*tenant_class=*/2, *g, /*epoch=*/1);
  Rng rng(37);
  PirStats stats;
  auto answers = RecursivePirBatchRead(fleet.ptrs, *g, {1, 2, 3}, &rng,
                                       nullptr, &stats, session);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(session->reads, 3u);
  EXPECT_EQ(session->upload_bits, stats.upload_bits);
  EXPECT_GT(session->expanded_cells, 0u);
  EXPECT_EQ(session->flat_scratch.size(), (records.size() + 7) / 8);
  EXPECT_EQ(sessions.num_sessions(), 1u);
  EXPECT_EQ(sessions.total_reads(), 3u);

  // Epoch moves on: scratch and geometry invalidate, counters survive.
  sessions.InvalidateBefore(2);
  EXPECT_EQ(session->flat_scratch.size(), 0u);
  EXPECT_EQ(session->geometry.n, 0u);
  EXPECT_EQ(session->reads, 3u);
  auto* refreshed = sessions.Establish(2, *g, /*epoch=*/2);
  EXPECT_EQ(refreshed, session);
  ASSERT_TRUE(
      RecursivePirRead(fleet.ptrs, *g, 4, &rng, nullptr, nullptr, refreshed)
          .ok());
  EXPECT_EQ(refreshed->reads, 4u);
  EXPECT_EQ(sessions.Find(3), nullptr);
}

TEST(EpochRecursivePirTest, RecursiveReaderServesFlipsAndInvalidates) {
  MemWalIo wal;
  EpochStore store;
  EpochConfig config;
  config.k = 3;
  config.qi_cols = {0, 1};
  // Large enough that the seed's fixed 64-bit overhead amortizes: d = 1
  // ships 64 + n = 264 bits per read, d = 2 ships 64 + 3*2*15 = 154.
  auto db = EpochedDatabase::Create(MakeClinicalTrial(200, 9), config, &wal,
                                    &store);
  ASSERT_TRUE(db.ok());

  EpochPirOptions options;
  options.dimensions = 2;
  options.tenant_class = 1;
  EpochPirReader reader(db->manager(), options);
  EpochPirReader flat_reader(db->manager());  // d = 1, the 2-server scheme
  Rng rng(41);
  Rng flat_rng(43);

  // Both dimensions decode the same protected rows of the pinned epoch.
  const auto expected = SnapshotRecords(db->Pin()->protected_table);
  for (size_t i : {0u, 5u, 23u}) {
    auto rec = reader.Read(i, &rng);
    ASSERT_TRUE(rec.ok()) << i;
    EXPECT_EQ(*rec, expected[i]) << i;
    auto flat = flat_reader.Read(i, &flat_rng);
    ASSERT_TRUE(flat.ok()) << i;
    EXPECT_EQ(*flat, expected[i]) << i;
  }
  EXPECT_GT(reader.preprocess_bytes(), 0u);
  EXPECT_EQ(reader.sessions().num_sessions(), 1u);
  EXPECT_EQ(reader.sessions().total_reads(), 3u);
  // d = 2 upload is well under d = 1's O(n) bits.
  EXPECT_EQ(flat_reader.stats().upload_bits, 3 * (64 + 200u));
  EXPECT_LT(reader.stats().upload_bits, flat_reader.stats().upload_bits);

  // A dimension outside [1, 8] is a typed refusal on the first read, never
  // a silent fallback to another scheme.
  for (size_t bad : {0u, 9u}) {
    EpochPirOptions bad_options;
    bad_options.dimensions = bad;
    EpochPirReader bad_reader(db->manager(), bad_options);
    Rng bad_rng(47);
    auto refused = bad_reader.Read(0, &bad_rng);
    ASSERT_FALSE(refused.ok()) << "d=" << bad;
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
        << "d=" << bad;
    EXPECT_EQ(bad_reader.replica_builds(), 0u);
  }

  // Flip the epoch: the reader rebuilds the replica's layout and
  // invalidates stale session scratch, and reads stay correct.
  ASSERT_TRUE(
      db->SubmitMutation(RowMutation::Update(0, {170, 70, 150, "N"})).ok());
  ASSERT_TRUE(db->Flip().ok());
  const uint64_t builds_before = reader.replica_builds();
  auto batch = reader.ReadBatch({1, 4, 1, 9}, &rng);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(reader.replica_builds(), builds_before + 1);
  EXPECT_EQ(reader.last_served_epoch(), db->Pin()->epoch);
  const auto flipped = SnapshotRecords(db->Pin()->protected_table);
  EXPECT_EQ((*batch)[0], flipped[1]);
  EXPECT_EQ((*batch)[3], flipped[9]);
  EXPECT_EQ(reader.sessions().total_reads(), 7u);
}

}  // namespace
}  // namespace tripriv
