#include "pir/epoch_pir.h"

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>

namespace tripriv {

std::vector<std::vector<uint8_t>> SnapshotRecords(const DataTable& table) {
  // Every row rendered back to back into one buffer; row r ends at ends[r].
  const size_t n = table.num_rows();
  std::string text;
  std::vector<size_t> ends(n);
  size_t widest = 1;  // XOR PIR needs non-zero record length
  size_t begin = 0;
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) text.push_back('|');
      table.at(r, c).AppendDisplayString(&text);
    }
    ends[r] = text.size();
    widest = std::max(widest, ends[r] - begin);
    begin = ends[r];
  }
  // Each record sized once at the epoch's width, zero-padded.
  std::vector<std::vector<uint8_t>> records;
  records.reserve(n);
  begin = 0;
  for (size_t r = 0; r < n; ++r) {
    std::vector<uint8_t>& record = records.emplace_back(widest, uint8_t{0});
    std::copy(text.begin() + static_cast<std::ptrdiff_t>(begin),
              text.begin() + static_cast<std::ptrdiff_t>(ends[r]),
              record.begin());
    begin = ends[r];
  }
  return records;
}

std::string RecordToString(const std::vector<uint8_t>& record) {
  size_t len = record.size();
  while (len > 0 && record[len - 1] == 0) --len;
  return std::string(record.begin(), record.begin() + len);
}

uint64_t EpochPirReader::preprocess_bytes() const {
  uint64_t total = 0;
  for (const Replicas& entry : cache_) {
    total += entry.replica->preprocess_bytes();
  }
  return total;
}

Result<EpochPirReader::Replicas*> EpochPirReader::ReplicasFor(
    const PinnedEpoch& pinned) {
  const uint64_t epoch = pinned->epoch;
  for (Replicas& entry : cache_) {
    if (entry.epoch == epoch) return &entry;
  }
  auto records = SnapshotRecords(pinned->protected_table);
  Replicas built;
  built.epoch = epoch;
  // One replica, aliased 2^d times at read time, plus the epoch's
  // hypercube geometry (the row count may change per epoch). Create copies
  // the records into the dense layout and frees them; the layout is
  // evicted with the epoch's entry, so the flip IS the invalidation.
  TRIPRIV_ASSIGN_OR_RETURN(
      built.geometry,
      HypercubeGeometry::Balanced(records.size(), options_.dimensions));
  TRIPRIV_ASSIGN_OR_RETURN(XorPirServer replica,
                           XorPirServer::Create(std::move(records)));
  built.replica = std::make_unique<XorPirServer>(std::move(replica));
  // A newly rendered epoch means any session scratch sized for an older
  // epoch's table is stale: drop it before the first read of this epoch.
  sessions_.InvalidateBefore(epoch);
  // At most two cached epochs — the manager's live-epoch bound. Oldest out.
  if (cache_.size() >= 2) cache_.erase(cache_.begin());
  cache_.push_back(std::move(built));
  ++replica_builds_;
  return &cache_.back();
}

Result<std::vector<uint8_t>> EpochPirReader::Read(size_t index, Rng* rng) {
  PinnedEpoch pinned = manager_->Pin();
  TRIPRIV_ASSIGN_OR_RETURN(Replicas * replicas, ReplicasFor(pinned));
  last_served_epoch_ = pinned->epoch;
  PirSessionRegistry::Session* session = sessions_.Establish(
      options_.tenant_class, replicas->geometry, replicas->epoch);
  const std::vector<XorPirServer*> servers(replicas->geometry.num_servers(),
                                           replicas->replica.get());
  return RecursivePirRead(servers, replicas->geometry, index, rng,
                          /*pool=*/nullptr, &stats_, session);
}

Result<std::vector<std::vector<uint8_t>>> EpochPirReader::ReadBatch(
    const std::vector<size_t>& indices, Rng* rng, ThreadPool* pool) {
  // One pin for the whole batch: every answer comes from the same frozen
  // epoch no matter how many flips land while the batch computes.
  PinnedEpoch pinned = manager_->Pin();
  TRIPRIV_ASSIGN_OR_RETURN(Replicas * replicas, ReplicasFor(pinned));
  last_served_epoch_ = pinned->epoch;
  PirSessionRegistry::Session* session = sessions_.Establish(
      options_.tenant_class, replicas->geometry, replicas->epoch);
  const std::vector<XorPirServer*> servers(replicas->geometry.num_servers(),
                                           replicas->replica.get());
  return RecursivePirBatchRead(servers, replicas->geometry, indices, rng, pool,
                               &stats_, session);
}

}  // namespace tripriv
