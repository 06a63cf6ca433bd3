#include "service/pir_failover.h"

#include "pir/xor_kernel.h"
#include "util/checksum.h"

namespace tripriv {
namespace {

/// Appends the 8-byte FNV-1a integrity suffix to every record so each
/// server stores checksummed records and any reconstruction is verifiable.
Result<std::vector<std::vector<uint8_t>>> ChecksumRecords(
    const std::vector<std::vector<uint8_t>>& records) {
  if (records.empty()) return Status::InvalidArgument("empty database");
  const size_t payload_size = records[0].size();
  std::vector<std::vector<uint8_t>> stored;
  stored.reserve(records.size());
  for (const auto& r : records) {
    if (r.size() != payload_size) {
      return Status::InvalidArgument("records must have equal length");
    }
    std::vector<uint8_t> with_sum = r;
    const uint64_t sum = Fnv1a64(r.data(), r.size());
    for (int i = 0; i < 8; ++i) {
      with_sum.push_back(static_cast<uint8_t>(sum >> (8 * i)));
    }
    stored.push_back(std::move(with_sum));
  }
  return stored;
}

}  // namespace

Result<FailoverPirClient> FailoverPirClient::Build(
    const std::vector<std::vector<uint8_t>>& records, size_t num_pairs,
    const RetryPolicy& retry, SimClock* clock, uint64_t seed) {
  return BuildRecursive(records, num_pairs, /*dimensions=*/1, retry, clock,
                        seed);
}

Result<FailoverPirClient> FailoverPirClient::BuildRecursive(
    const std::vector<std::vector<uint8_t>>& records, size_t num_groups,
    size_t dimensions, const RetryPolicy& retry, SimClock* clock,
    uint64_t seed, bool preprocess) {
  TRIPRIV_CHECK(clock != nullptr);
  if (num_groups < 1) {
    return Status::InvalidArgument("need at least one server group");
  }
  TRIPRIV_ASSIGN_OR_RETURN(auto stored, ChecksumRecords(records));

  FailoverPirClient client(retry, clock, seed);
  client.num_records_ = records.size();
  client.payload_size_ = records[0].size();
  TRIPRIV_ASSIGN_OR_RETURN(
      client.geometry_, HypercubeGeometry::Balanced(stored.size(), dimensions));
  const size_t total = client.group_size() * num_groups;
  client.servers_.reserve(total);
  for (size_t s = 0; s < total; ++s) {
    TRIPRIV_ASSIGN_OR_RETURN(XorPirServer server, XorPirServer::Create(stored));
    if (preprocess) server.Preprocess();
    client.servers_.push_back(std::move(server));
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
  for (size_t s = base; s < base + gs; ++s) {
    if (faults_[s].crashed) {
      return Status::Unavailable("PIR server " + std::to_string(s) +
                                 " is down");
    }
  }

  // Seed-compressed queries, one answer per replica, fault draws in member
  // order.
  PirSessionRegistry::Session* session =
      sessions_.Establish(tenant_class, geometry_, /*epoch=*/0);
  TRIPRIV_ASSIGN_OR_RETURN(auto queries,
                           BuildHypercubeQueries(geometry_, index, &rng_));
  std::vector<uint8_t> rec(payload_size_ + 8, 0);
  size_t upload = 0;
  for (size_t m = 0; m < gs; ++m) {
    upload += queries[m].upload_bits(geometry_);
    TRIPRIV_ASSIGN_OR_RETURN(
        auto ans, AnswerHypercubeQuery(&servers_[base + m], queries[m],
                                       geometry_, pool, session));
    if (!ans.empty() && rng_.Bernoulli(faults_[base + m].corrupt_rate)) {
      const size_t byte = static_cast<size_t>(rng_.UniformU64(ans.size()));
      ans[byte] ^= 0x5A;
    }
    TRIPRIV_CHECK_EQ(ans.size(), rec.size());
    XorBytesInto(rec.data(), ans.data(), rec.size());
  }
  session->reads += 1;
  session->upload_bits += upload;
  return VerifyReconstruction(std::move(rec), group);
}

Result<std::vector<uint8_t>> FailoverPirClient::Read(size_t index,
                                                     const Deadline& deadline,
                                                     uint8_t tenant_class) {
  return ReadImpl(index, deadline, tenant_class, /*pool=*/nullptr);
}

Result<std::vector<uint8_t>> FailoverPirClient::ReadImpl(
    size_t index, const Deadline& deadline, uint8_t tenant_class,
    ThreadPool* pool) {
  if (index >= num_records_) {
    return Status::OutOfRange("record index out of range");
  }
  const size_t groups = num_groups();
  const size_t first_group = next_group_;
  next_group_ = (next_group_ + 1) % groups;

  Status last = Status::Unavailable("no PIR attempt was made");
  const size_t max_attempts = retry_.max_attempts < 1 ? 1 : retry_.max_attempts;
  for (size_t attempt = 0; attempt < max_attempts; ++attempt) {
    if (deadline.expired(*clock_)) {
      return DeadlineExceededError("PIR read after " +
                                   std::to_string(attempt) + " attempt(s)");
    }
    const size_t group = (first_group + attempt) % groups;
    if (attempt > 0) ++failovers_;
    auto read = ReadFromGroup(group, index, tenant_class, pool);
    if (read.ok()) return read;
    if (!read.status().transient()) return read.status();
    last = read.status();
    // Charge backoff to the simulated clock; the deadline check at the top
    // of the loop turns an expired budget into a typed failure.
    clock_->Advance(retry_.BackoffTicks(attempt));
  }
  return Status::Unavailable("PIR read failed after " +
                             std::to_string(max_attempts) +
                             " attempts across " + std::to_string(groups) +
                             " group(s); last: " + last.message());
}

std::vector<Result<std::vector<uint8_t>>> FailoverPirClient::ReadBatch(
    const std::vector<size_t>& indices, const Deadline& deadline,
    ThreadPool* pool, uint8_t tenant_class) {
  // Items run serially in index order (the exact rng transcript of a Read
  // loop); the pool shards each replica's XOR sweep inside the answer.
  std::vector<Result<std::vector<uint8_t>>> results;
  results.reserve(indices.size());
  for (size_t index : indices) {
    results.push_back(ReadImpl(index, deadline, tenant_class, pool));
  }
  return results;
}

}  // namespace tripriv
