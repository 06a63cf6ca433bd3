// Tests for the epoch-versioned mutable protected database: bootstrap
// protection, flip application, the fail-closed privacy gate (old epoch
// keeps serving, pending writes survive), typed I/O refusals, write
// admission, WAL-driven recovery, and checksum-verified epoch adoption.

#include "service/epoch_service.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "sdc/anonymity.h"
#include "table/datasets.h"
#include "util/checksum.h"

namespace tripriv {
namespace {

EpochConfig SmallConfig() {
  EpochConfig config;
  config.k = 3;
  config.qi_cols = {0, 1};
  return config;
}

Result<EpochedDatabase> MakeDb(MemWalIo* wal, EpochStore* store,
                               size_t rows = 30,
                               EpochConfig config = SmallConfig()) {
  return EpochedDatabase::Create(MakeClinicalTrial(rows, 5), std::move(config),
                                 wal, store);
}

TEST(EpochServiceTest, BootstrapProtectsAndJournalsEpochOne) {
  MemWalIo wal;
  EpochStore store;
  auto db = MakeDb(&wal, &store);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  EXPECT_EQ(db->epoch(), 1u);
  PinnedEpoch pinned = db->Pin();
  EXPECT_TRUE(IsKAnonymous(pinned->protected_table, 3, {0, 1}));
  EXPECT_EQ(pinned->protected_checksum,
            TableChecksum(pinned->protected_table));

  // Begin + commit journaled; the durable image matches the WAL digest.
  auto recovered = AuditWal::Recover(&wal);
  ASSERT_TRUE(recovered.ok());
  ASSERT_EQ(recovered->records.size(), 2u);
  EXPECT_EQ(recovered->records[0].type, WalRecordType::kEpochFlipBegin);
  EXPECT_EQ(recovered->records[1].type, WalRecordType::kEpochFlipCommit);
  EXPECT_EQ(recovered->records[1].query_id, 1u);
  ASSERT_NE(store.Get(1), nullptr);
  EXPECT_EQ(TableChecksum(store.Get(1)->protected_table),
            recovered->records[1].query_fingerprint);
}

TEST(EpochServiceTest, CensusBootstrapIsPinned) {
  // A full MDAV bootstrap at benchmark scale: 20,000 census rows, k = 5
  // over (age, education). The constants were captured from the full-sort
  // MDAV this bootstrap used to run; any change to the grouping shows up in
  // the group count, the protected checksum or the journaled commit.
  const DataTable census = MakeCensus(20000, 11);
  EpochConfig config;
  config.k = 5;
  config.qi_cols = {*census.schema().IndexOf("age"),
                    *census.schema().IndexOf("education")};
  MemWalIo wal;
  EpochStore store;
  auto db = EpochedDatabase::Create(census, std::move(config), &wal, &store);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  PinnedEpoch pinned = db->Pin();
  EXPECT_EQ(pinned->num_groups, 4000u);
  EXPECT_EQ(pinned->protected_checksum, 0xe9fd4009f8b2c7d7ull);
  auto bytes = wal.ReadAll();
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes->size(), 116u);
  EXPECT_EQ(Fnv1a64(bytes->data(), bytes->size()), 0x9edb44d11756cea3ull);
}

TEST(EpochServiceTest, UnprotectableInitialBaseRefusesToStart) {
  MemWalIo wal;
  EpochStore store;
  auto db = MakeDb(&wal, &store, /*rows=*/2);
  EXPECT_EQ(db.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EpochServiceTest, FlipAppliesMutationsAndOldPinStaysFrozen) {
  MemWalIo wal;
  EpochStore store;
  auto db = MakeDb(&wal, &store);
  ASSERT_TRUE(db.ok());
  PinnedEpoch before = db->Pin();

  ASSERT_TRUE(db->SubmitMutation(
                    RowMutation::Insert({170, 74, 151, "N"}))
                  .ok());
  ASSERT_TRUE(db->SubmitMutation(
                    RowMutation::Insert({168, 70, 148, "Y"}))
                  .ok());
  ASSERT_TRUE(db->SubmitMutation(RowMutation::Delete(3)).ok());
  ASSERT_TRUE(
      db->SubmitMutation(RowMutation::Update(7, {180, 88, 160, "N"})).ok());

  auto flipped = db->Flip();
  ASSERT_TRUE(flipped.ok()) << flipped.status().ToString();
  EXPECT_EQ(*flipped, 2u);
  EXPECT_EQ(db->epoch(), 2u);
  EXPECT_EQ(db->pending_mutations(), 0u);

  PinnedEpoch after = db->Pin();
  EXPECT_EQ(after->base.num_rows(), 31u);  // 30 + 2 - 1
  EXPECT_TRUE(IsKAnonymous(after->protected_table, 3, {0, 1}));
  // The pre-flip pin still reads the old epoch, bit for bit.
  EXPECT_EQ(before->epoch, 1u);
  EXPECT_EQ(before->base.num_rows(), 30u);
  EXPECT_EQ(db->stats().flips_committed, 1u);
  EXPECT_EQ(db->stats().mutations_applied, 4u);
}

TEST(EpochServiceTest, PrivacyGateRefusalKeepsOldEpochAndPendingWrites) {
  MemWalIo wal;
  EpochStore store;
  EpochConfig config = SmallConfig();
  config.k = 4;
  auto db = MakeDb(&wal, &store, 9, config);  // 9 rows: 2 groups of 4..5
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  // Deleting 3 rows leaves 6 < 2k: some group must drop below k, OR the
  // maintainer squeezes to one group of 6 (>= k). Delete down to < k rows
  // to make the refusal unconditional.
  for (uint64_t uid : {0u, 1u, 2u, 3u, 4u, 5u}) {
    ASSERT_TRUE(db->SubmitMutation(RowMutation::Delete(uid)).ok());
  }
  const size_t pending_before = db->pending_mutations();
  auto flipped = db->Flip();
  EXPECT_EQ(flipped.status().code(), StatusCode::kFailedPrecondition);

  // Fail closed: old epoch serves, writes stay pending, refusal journaled.
  EXPECT_EQ(db->epoch(), 1u);
  EXPECT_EQ(db->pending_mutations(), pending_before);
  EXPECT_EQ(db->stats().flips_refused_privacy, 1u);
  EXPECT_TRUE(IsKAnonymous(db->Pin()->protected_table, 4, {0, 1}));
  auto recovered = AuditWal::Recover(&wal);
  ASSERT_TRUE(recovered.ok());
  const WalRecord& last = recovered->records.back();
  EXPECT_EQ(last.type, WalRecordType::kEpochFlipAbort);
  EXPECT_EQ(last.query_id, 2u);
  EXPECT_EQ(static_cast<WalFlipAbortReason>(last.decision),
            WalFlipAbortReason::kPrivacyGate);

  // Covering inserts rescue the same pending deletes: the retry commits.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(db->SubmitMutation(
                      RowMutation::Insert({170 + i, 70 + i, 150, "N"}))
                    .ok());
  }
  auto retry = db->Flip();
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(db->epoch(), 2u);
  EXPECT_EQ(db->Pin()->base.num_rows(), 6u);  // 9 - 6 + 3
}

TEST(EpochServiceTest, DeletingEveryRowIsAGateRefusalNotAPoisonedBatch) {
  MemWalIo wal;
  EpochStore store;
  auto db = MakeDb(&wal, &store, 9);
  ASSERT_TRUE(db.ok());
  for (uint64_t uid = 0; uid < 9; ++uid) {
    ASSERT_TRUE(db->SubmitMutation(RowMutation::Delete(uid)).ok());
  }
  auto flipped = db->Flip();
  EXPECT_EQ(flipped.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(db->epoch(), 1u);
  EXPECT_EQ(db->pending_mutations(), 9u);  // kept for a covering retry
  EXPECT_EQ(db->stats().flips_refused_privacy, 1u);
}

TEST(EpochServiceTest, PoisonedBatchIsDroppedWithItsTypedError) {
  MemWalIo wal;
  EpochStore store;
  auto db = MakeDb(&wal, &store);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->SubmitMutation(RowMutation::Delete(999)).ok());
  auto flipped = db->Flip();
  EXPECT_EQ(flipped.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(db->epoch(), 1u);
  // Retrying a poisoned batch can never succeed: it is dropped.
  EXPECT_EQ(db->pending_mutations(), 0u);
  EXPECT_EQ(db->stats().flips_refused_io, 1u);
  // The database still flips cleanly afterwards.
  ASSERT_TRUE(db->SubmitMutation(RowMutation::Delete(0)).ok());
  EXPECT_TRUE(db->Flip().ok());
}

/// The census-scale epoch: k = 5 over the four numeric quasi-identifiers.
EpochConfig CensusScaleConfig(const DataTable& census) {
  EpochConfig config;
  config.k = 5;
  for (const char* name :
       {"age", "education_years", "hours_per_week", "survey_weight"}) {
    config.qi_cols.push_back(*census.schema().IndexOf(name));
  }
  return config;
}

TEST(EpochServiceTest, NonFiniteWriteIsDroppedAndLaterFlipsCommit) {
  // One insert with a NaN survey weight. Were it masked, its group's
  // centroid would be NaN, the k-gate would refuse the candidate, and the
  // batch would come back on every flip, so no write could commit again.
  // It is an invalid batch instead: dropped, and the next flip commits.
  const DataTable census = MakeCensusScale(2000, 11);
  const size_t weight = *census.schema().IndexOf("survey_weight");
  MemWalIo wal;
  EpochStore store;
  auto db = EpochedDatabase::Create(census, CensusScaleConfig(census), &wal,
                                    &store);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  std::vector<Value> poisoned = census.row(0);
  poisoned[weight] = Value(std::numeric_limits<double>::quiet_NaN());
  ASSERT_TRUE(db->SubmitMutation(RowMutation::Insert(poisoned)).ok());
  auto flipped = db->Flip();
  EXPECT_EQ(flipped.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(db->epoch(), 1u);
  EXPECT_EQ(db->pending_mutations(), 0u);
  EXPECT_EQ(db->stats().flips_refused_io, 1u);
  EXPECT_EQ(db->stats().flips_refused_privacy, 0u);
  auto recovered = AuditWal::Recover(&wal);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->records.back().type, WalRecordType::kEpochFlipAbort);
  EXPECT_EQ(static_cast<WalFlipAbortReason>(recovered->records.back().decision),
            WalFlipAbortReason::kIo);

  for (size_t round = 0; round < 4; ++round) {
    ASSERT_TRUE(
        db->SubmitMutation(RowMutation::Insert(census.row(round + 1))).ok());
    auto next = db->Flip();
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    EXPECT_EQ(*next, round + 2);
  }
  EXPECT_EQ(db->Pin()->base.num_rows(), 2004u);
  EXPECT_TRUE(IsKAnonymous(db->Pin()->protected_table, 5,
                           CensusScaleConfig(census).qi_cols));
}

TEST(EpochServiceTest, NonFiniteInitialBaseIsRefusedAsInvalid) {
  DataTable census = MakeCensusScale(2000, 11);
  const size_t weight = *census.schema().IndexOf("survey_weight");
  ASSERT_TRUE(
      census.Set(9, weight, Value(std::numeric_limits<double>::infinity()))
          .ok());
  MemWalIo wal;
  EpochStore store;
  auto db = EpochedDatabase::Create(census, CensusScaleConfig(census), &wal,
                                    &store);
  EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument);
}

TEST(EpochServiceTest, StoreSyncFaultIsATypedIoRefusal) {
  MemWalIo wal;
  EpochStore store;
  auto db = MakeDb(&wal, &store);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->SubmitMutation(RowMutation::Delete(0)).ok());

  store.set_fail_syncs(true);
  auto flipped = db->Flip();
  EXPECT_EQ(flipped.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(db->epoch(), 1u);
  EXPECT_EQ(db->pending_mutations(), 1u);  // the write is not lost
  EXPECT_EQ(db->stats().flips_refused_io, 1u);
  // The failed candidate image was garbage-collected.
  EXPECT_EQ(store.Epochs(), (std::vector<uint64_t>{1}));

  store.set_fail_syncs(false);
  auto retry = db->Flip();
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(db->Pin()->base.num_rows(), 29u);
}

TEST(EpochServiceTest, AdmissionShedsBeyondThePendingBound) {
  MemWalIo wal;
  EpochStore store;
  EpochConfig config = SmallConfig();
  config.max_pending_mutations = 2;
  auto db = MakeDb(&wal, &store, 30, config);
  ASSERT_TRUE(db.ok());

  ASSERT_TRUE(db->SubmitMutation(RowMutation::Delete(0)).ok());
  ASSERT_TRUE(db->SubmitMutation(RowMutation::Delete(1)).ok());
  auto shed = db->SubmitMutation(RowMutation::Delete(2));
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(db->stats().mutations_admitted, 2u);
  EXPECT_EQ(db->stats().mutations_shed, 1u);
  // A flip drains the buffer and re-opens admission.
  ASSERT_TRUE(db->Flip().ok());
  EXPECT_TRUE(db->SubmitMutation(RowMutation::Delete(2)).ok());
}

TEST(EpochServiceTest, RecoveryAdoptsTheLastCommittedEpoch) {
  MemWalIo wal;
  EpochStore store;
  uint64_t expected_checksum = 0;
  {
    auto db = MakeDb(&wal, &store);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db->SubmitMutation(RowMutation::Delete(2)).ok());
    ASSERT_TRUE(db->Flip().ok());
    ASSERT_TRUE(
        db->SubmitMutation(RowMutation::Insert({172, 80, 144, "N"})).ok());
    ASSERT_TRUE(db->Flip().ok());
    expected_checksum = db->Pin()->protected_checksum;
  }

  // Reboot over the surviving WAL + store. The initial base is ignored.
  auto db = EpochedDatabase::Create(MakeClinicalTrial(5, 99), SmallConfig(),
                                    &wal, &store);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(db->epoch(), 3u);
  EXPECT_EQ(db->stats().recovered_epoch, 3u);
  EXPECT_EQ(db->Pin()->protected_checksum, expected_checksum);
  EXPECT_EQ(db->Pin()->base.num_rows(), 30u);  // 30 - 1 + 1
  // Recovery GC'd everything but the adopted image.
  EXPECT_EQ(store.Epochs(), (std::vector<uint64_t>{3}));
  // Mutations continue: uid allocation resumed past the recovered epoch.
  ASSERT_TRUE(
      db->SubmitMutation(RowMutation::Insert({169, 71, 152, "Y"})).ok());
  auto flipped = db->Flip();
  ASSERT_TRUE(flipped.ok());
  EXPECT_EQ(*flipped, 4u);
}

TEST(EpochServiceTest, CorruptStoreImageFailsRecoveryClosed) {
  MemWalIo wal;
  EpochStore store;
  {
    auto db = MakeDb(&wal, &store);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db->SubmitMutation(RowMutation::Delete(0)).ok());
    ASSERT_TRUE(db->Flip().ok());
  }
  // Swap the committed image for a tampered one: same epoch number,
  // different bytes. Adoption must refuse — serving an image that fails
  // its journaled digest would serve unverified data.
  auto forged = std::make_shared<EpochData>();
  forged->epoch = 2;
  forged->protected_table = MakeClinicalTrial(8, 1);
  store.Erase(2);
  store.Put(forged);
  ASSERT_TRUE(store.Sync().ok());

  auto db = MakeDb(&wal, &store);
  EXPECT_EQ(db.status().code(), StatusCode::kInternal);
}

TEST(EpochServiceTest, MissingStoreImageFailsRecoveryClosed) {
  MemWalIo wal;
  EpochStore store;
  {
    auto db = MakeDb(&wal, &store);
    ASSERT_TRUE(db.ok());
  }
  store.Erase(1);
  auto db = MakeDb(&wal, &store);
  EXPECT_EQ(db.status().code(), StatusCode::kInternal);
}

TEST(EpochServiceTest, FlipChargesTheDeterministicCostModel) {
  MemWalIo wal;
  EpochStore store;
  auto db = MakeDb(&wal, &store);
  ASSERT_TRUE(db.ok());
  const uint64_t after_bootstrap = db->sim_clock()->now();
  ASSERT_TRUE(db->SubmitMutation(RowMutation::Delete(5)).ok());
  ASSERT_TRUE(db->Flip().ok());
  const uint64_t flip_cost = db->sim_clock()->now() - after_bootstrap;
  EXPECT_EQ(flip_cost, db->config().flip_base_ticks +
                           db->config().flip_ticks_per_row *
                               db->stats().rows_reclustered_total);
}

}  // namespace
}  // namespace tripriv
