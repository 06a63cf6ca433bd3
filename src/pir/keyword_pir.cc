#include "pir/keyword_pir.h"

#include <algorithm>

namespace tripriv {
namespace {

std::vector<uint8_t> EncodeRecord(uint64_t key, uint64_t value) {
  std::vector<uint8_t> record(16);
  for (int i = 0; i < 8; ++i) {
    record[i] = static_cast<uint8_t>(key >> (8 * i));
    record[8 + i] = static_cast<uint8_t>(value >> (8 * i));
  }
  return record;
}

uint64_t DecodeU64(const std::vector<uint8_t>& record, size_t offset) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(record[offset + i]) << (8 * i);
  }
  return v;
}

}  // namespace

Result<KeywordPirStore> KeywordPirStore::Create(
    std::vector<std::pair<uint64_t, uint64_t>> entries) {
  if (entries.empty()) return Status::InvalidArgument("empty store");
  std::sort(entries.begin(), entries.end());
  for (size_t i = 1; i < entries.size(); ++i) {
    if (entries[i].first == entries[i - 1].first) {
      // Keys identify records; report the collision, not the key.
      return Status::InvalidArgument("duplicate key in store");
    }
  }
  std::vector<std::vector<uint8_t>> records;
  records.reserve(entries.size());
  for (const auto& [key, value] : entries) {
    records.push_back(EncodeRecord(key, value));
  }
  KeywordPirStore store;
  TRIPRIV_ASSIGN_OR_RETURN(store.geometry_,
                           HypercubeGeometry::Balanced(records.size(), 1));
  TRIPRIV_ASSIGN_OR_RETURN(store.server_a_, XorPirServer::Create(records));
  TRIPRIV_ASSIGN_OR_RETURN(store.server_b_,
                           XorPirServer::Create(std::move(records)));
  return store;
}

Result<std::optional<uint64_t>> KeywordPirStore::Lookup(uint64_t key, Rng* rng,
                                                        PirStats* stats) {
  TRIPRIV_CHECK(rng != nullptr);
  // Private binary search over the sorted key array.
  const std::vector<XorPirServer*> servers{&server_a_, &server_b_};
  size_t lo = 0;
  size_t hi = size();  // exclusive
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    TRIPRIV_ASSIGN_OR_RETURN(
        auto record, RecursivePirRead(servers, geometry_, mid, rng,
                                      /*pool=*/nullptr, stats));
    const uint64_t mid_key = DecodeU64(record, 0);
    if (mid_key == key) return std::optional<uint64_t>(DecodeU64(record, 8));
    if (mid_key < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return std::optional<uint64_t>();
}

size_t KeywordPirStore::queries_observed() const {
  return static_cast<size_t>(server_a_.queries_answered() +
                             server_b_.queries_answered());
}

}  // namespace tripriv
