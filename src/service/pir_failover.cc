#include "service/pir_failover.h"

#include <algorithm>

#include "util/checksum.h"

namespace tripriv {

Result<FailoverPirClient> FailoverPirClient::Build(
    const std::vector<std::vector<uint8_t>>& records, size_t num_pairs,
    const RetryPolicy& retry, SimClock* clock, uint64_t seed) {
  return BuildRecursive(records, num_pairs, /*dimensions=*/1, retry, clock,
                        seed);
}

Result<FailoverPirClient> FailoverPirClient::BuildRecursive(
    const std::vector<std::vector<uint8_t>>& records, size_t num_groups,
    size_t dimensions, const RetryPolicy& retry, SimClock* clock,
    uint64_t seed, bool /*preprocess*/) {
  TRIPRIV_CHECK(clock != nullptr);
  if (num_groups < 1) {
    return Status::InvalidArgument("need at least one server group");
  }
  if (records.empty()) return Status::InvalidArgument("empty database");
  const size_t payload_size = records[0].size();
  for (const auto& r : records) {
    if (r.size() != payload_size) {
      return Status::InvalidArgument("records must have equal length");
    }
  }

  FailoverPirClient client(retry, clock, seed);
  client.num_records_ = records.size();
  client.payload_size_ = payload_size;
  TRIPRIV_ASSIGN_OR_RETURN(
      client.geometry_,
      HypercubeGeometry::Balanced(records.size(), dimensions));
  // Each stored record is the payload, then its FNV-1a sum's 8 bytes
  // little-endian, written once, straight into the first server's layout,
  // so any reconstruction is verifiable.
  auto write_stored = [&records, payload_size](size_t i, uint8_t* out) {
    std::copy(records[i].begin(), records[i].end(), out);
    const uint64_t sum = Fnv1a64(records[i].data(), payload_size);
    for (size_t b = 0; b < 8; ++b) {
      out[payload_size + b] = static_cast<uint8_t>(sum >> (8 * b));
    }
  };
  TRIPRIV_ASSIGN_OR_RETURN(
      XorPirServer first,
      XorPirServer::Create(records.size(), payload_size + 8, write_stored));
  // The other physical servers copy the first one's layout: each owns and
  // streams its own bytes, nothing is aliased.
  const size_t total = client.group_size() * num_groups;
  client.servers_.reserve(total);
  client.servers_.push_back(std::move(first));
  while (client.servers_.size() < total) {
    client.servers_.push_back(client.servers_.front());
  }
  client.faults_.resize(total);
  return client;
}

void FailoverPirClient::InjectFault(size_t server, const PirServerFault& fault) {
  TRIPRIV_CHECK_LT(server, faults_.size());
  faults_[server] = fault;
}

void FailoverPirClient::EnableObservationLogs(size_t capacity) {
  for (auto& server : servers_) server.EnableObservationLog(capacity);
}

Result<std::vector<uint8_t>> FailoverPirClient::VerifyReconstruction(
    std::vector<uint8_t> rec, size_t group) {
  // rec is (payload | checksum); verify before trusting it.
  TRIPRIV_CHECK_EQ(rec.size(), payload_size_ + 8);
  uint64_t stored_sum = 0;
  for (int i = 0; i < 8; ++i) {
    stored_sum |= static_cast<uint64_t>(rec[payload_size_ + i]) << (8 * i);
  }
  if (Fnv1a64(rec.data(), payload_size_) != stored_sum) {
    ++corrupt_detected_;
    return Status::Unavailable("PIR group " + std::to_string(group) +
                               " returned a corrupt reconstruction");
  }
  rec.resize(payload_size_);
  return rec;
}

Result<std::vector<uint8_t>> FailoverPirClient::ReadFromGroup(
    size_t group, size_t index, uint8_t tenant_class, ThreadPool* pool) {
  const size_t gs = group_size();
  const size_t base = gs * group;
  std::vector<XorPirServer*> members;
  members.reserve(gs);
  for (size_t s = base; s < base + gs; ++s) {
    if (faults_[s].crashed) {
      return Status::Unavailable("PIR server " + std::to_string(s) +
                                 " is down");
    }
    members.push_back(&servers_[s]);
  }
  PirSessionRegistry::Session* session =
      sessions_.Establish(tenant_class, geometry_, /*epoch=*/0);
  TRIPRIV_ASSIGN_OR_RETURN(
      auto rec, RecursivePirRead(members, geometry_, index, &rng_, pool,
                                 /*stats=*/nullptr, session));
  // A lying member flips one byte of its answer. XOR is linear, so that
  // flips the same byte of the reconstruction; the draws run in member
  // order after the query seed, as if applied to each answer.
  for (size_t m = 0; m < gs; ++m) {
    if (rng_.Bernoulli(faults_[base + m].corrupt_rate)) {
      rec[static_cast<size_t>(rng_.UniformU64(rec.size()))] ^= 0x5A;
    }
  }
  return VerifyReconstruction(std::move(rec), group);
}

Result<std::vector<uint8_t>> FailoverPirClient::Read(size_t index,
                                                     const Deadline& deadline,
                                                     uint8_t tenant_class,
                                                     ThreadPool* pool) {
  if (index >= num_records_) {
    return Status::OutOfRange("record index out of range");
  }
  const size_t groups = num_groups();
  const size_t first_group = next_group_;
  next_group_ = (next_group_ + 1) % groups;
  // Each attempt fails over to the next group; a crashed member or a
  // corrupt reconstruction is a transient kUnavailable.
  return RunRetryLadder<std::vector<uint8_t>>(
      retry_, deadline, clock_, /*breaker=*/nullptr, "PIR read",
      [this, first_group, groups, index, tenant_class, pool](size_t attempt) {
        if (attempt > 0) ++failovers_;
        return ReadFromGroup((first_group + attempt) % groups, index,
                             tenant_class, pool);
      });
}

std::vector<Result<std::vector<uint8_t>>> FailoverPirClient::ReadBatch(
    const std::vector<size_t>& indices, const Deadline& deadline,
    ThreadPool* pool, uint8_t tenant_class) {
  // Items run serially in index order (the exact rng transcript of a Read
  // loop); the pool shards each replica's XOR sweep inside the answer.
  std::vector<Result<std::vector<uint8_t>>> results;
  results.reserve(indices.size());
  for (size_t index : indices) {
    results.push_back(Read(index, deadline, tenant_class, pool));
  }
  return results;
}

}  // namespace tripriv
