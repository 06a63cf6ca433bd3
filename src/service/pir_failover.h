// Multi-server IT-PIR with failover.
//
// XOR PIR (pir/recursive_pir.h) needs every replica of a group to answer,
// and answers correctly only if none lies: the client XORs opaque blobs,
// so a single corrupt answer silently yields a corrupt record.
// FailoverPirClient makes the scheme serviceable:
//
//   * the database is replicated onto `num_groups` independent groups of
//     2^d replicas, each group running the d-dimensional hypercube scheme
//     (d = 1 is the 2-server scheme, a pair per group);
//   * every stored record carries an 8-byte FNV-1a checksum suffix, so the
//     client can detect a corrupted reconstruction without any reference
//     copy (the group's members would have to corrupt consistently to
//     forge it — excluded by the non-collusion assumption IT-PIR already
//     makes);
//   * a crashed server (kUnavailable) or a detected-corrupt reconstruction
//     fails the attempt over to the next group through RunRetryLadder
//     (util/retry.h), with backoff charged to the simulated clock and the
//     caller's Deadline enforced between attempts;
//   * each attempt is one RecursivePirRead over the group's members; an
//     injected lying member flips a byte of the reconstruction, which by
//     the linearity of XOR is what flipping its answer would do.
//
// Privacy note: failing over re-issues the query to a *different* group
// with a fresh seed; no server ever sees two members' queries of one read,
// so the single-server view stays information-theoretically blind across
// retries. Upload is 64 + (2^d - 1) * d * n^(1/d) bits per read, and a
// PirSessionRegistry keyed by allowlisted tenant class retains expansion
// scratch across a batch.

#pragma once

#include <cstdint>
#include <vector>

#include "pir/it_pir.h"
#include "pir/recursive_pir.h"
#include "util/clock.h"
#include "util/random.h"
#include "util/retry.h"
#include "util/status.h"

namespace tripriv {

/// Injectable misbehaviour of one physical PIR server.
struct PirServerFault {
  /// Crashed: every query fails with kUnavailable.
  bool crashed = false;
  /// P(an answer comes back with a flipped byte).
  double corrupt_rate = 0.0;
};

/// Hypercube XOR PIR across replicated groups with checksum verification
/// and group failover. See file comment.
class FailoverPirClient {
 public:
  /// The 2-server scheme: BuildRecursive at d = 1, one pair per group.
  static Result<FailoverPirClient> Build(
      const std::vector<std::vector<uint8_t>>& records, size_t num_pairs,
      const RetryPolicy& retry, SimClock* clock, uint64_t seed);

  /// Replicates `records` (plus per-record checksums) onto num_groups
  /// groups of 2^d servers, each group running the d-dimensional scheme:
  /// one server's dense layout is built, and every other server holds a
  /// copy of it. `preprocess` is ignored (every layout is dense). Requires
  /// num_groups >= 1, d in [1, 8] and valid records (see
  /// XorPirServer::Create).
  static Result<FailoverPirClient> BuildRecursive(
      const std::vector<std::vector<uint8_t>>& records, size_t num_groups,
      size_t dimensions, const RetryPolicy& retry, SimClock* clock,
      uint64_t seed, bool preprocess = false);

  /// Installs `fault` on physical server `server` (group s / group_size(),
  /// member s % group_size()).
  void InjectFault(size_t server, const PirServerFault& fault);

  /// Privately reads record `index`, failing over across groups under the
  /// retry policy and `deadline`. Returns the record WITHOUT its checksum
  /// suffix. Fails with kUnavailable when every attempt hit a crashed group
  /// or a corrupt reconstruction, kDeadlineExceeded when time ran out.
  /// `tenant_class` keys the expansion session (allowlisted class index,
  /// never a principal id); `pool` (null = inline) shards each replica's
  /// XOR sweep.
  Result<std::vector<uint8_t>> Read(size_t index, const Deadline& deadline,
                                    uint8_t tenant_class = 0,
                                    ThreadPool* pool = nullptr);

  /// Batched private reads with positional results: a Read loop in index
  /// order (the exact rng transcript of serial Reads) whose per-replica
  /// XOR sweeps are sharded across `pool` (null = inline). Expansion state
  /// and session scratch never cross threads, one session serves the whole
  /// batch, and answers, counters and server views are independent of the
  /// thread count.
  std::vector<Result<std::vector<uint8_t>>> ReadBatch(
      const std::vector<size_t>& indices, const Deadline& deadline,
      ThreadPool* pool = nullptr, uint8_t tenant_class = 0);

  /// Replicas per failover group: 2^d.
  size_t group_size() const { return geometry_.num_servers(); }
  /// Independent failover groups.
  size_t num_groups() const { return servers_.size() / group_size(); }
  /// Hypercube geometry every group serves.
  const HypercubeGeometry& geometry() const { return geometry_; }
  /// Per-tenant-class expansion sessions.
  const PirSessionRegistry& sessions() const { return sessions_; }
  /// Bytes held by the dense layouts of all replicas:
  /// num_groups() * group_size() * num_records() * stride.
  uint64_t preprocess_bytes() const {
    uint64_t total = 0;
    for (const XorPirServer& server : servers_) {
      total += server.preprocess_bytes();
    }
    return total;
  }
  size_t num_records() const { return num_records_; }
  /// Attempts that moved past the first-choice group.
  size_t failovers() const { return failovers_; }
  /// Reconstructions rejected by the checksum.
  size_t corrupt_answers_detected() const { return corrupt_detected_; }
  /// Sum of bytes_xored() across all physical servers — the aggregate work
  /// metric of the PIR hot loop.
  uint64_t total_bytes_xored() const {
    uint64_t total = 0;
    for (const XorPirServer& server : servers_) total += server.bytes_xored();
    return total;
  }
  /// Sum of queries_answered() across all physical servers.
  uint64_t total_queries_answered() const {
    uint64_t total = 0;
    for (const XorPirServer& server : servers_) {
      total += server.queries_answered();
    }
    return total;
  }
  /// Physical server `i` (group i / group_size(), member i % group_size())
  /// — its observation ring holds the single-server view the blindness
  /// tests inspect (enable it with EnableObservationLogs first).
  const XorPirServer& server(size_t i) const {
    TRIPRIV_CHECK_LT(i, servers_.size());
    return servers_[i];
  }

  /// Attack-analysis mode: turns on a bounded observation ring of
  /// `capacity` entries on every physical server (see
  /// XorPirServer::EnableObservationLog). Off by default.
  void EnableObservationLogs(size_t capacity);

 private:
  FailoverPirClient(const RetryPolicy& retry, SimClock* clock, uint64_t seed)
      : retry_(retry), clock_(clock), rng_(seed) {}

  /// One read against group `group`, with fault injection and checksum
  /// verification. `pool` shards each replica's XOR sweep.
  Result<std::vector<uint8_t>> ReadFromGroup(size_t group, size_t index,
                                             uint8_t tenant_class,
                                             ThreadPool* pool);
  /// Strips and verifies the checksum suffix of a reconstruction; counts a
  /// failure as a detected-corrupt answer.
  Result<std::vector<uint8_t>> VerifyReconstruction(std::vector<uint8_t> rec,
                                                    size_t group);

  RetryPolicy retry_;
  SimClock* clock_;
  Rng rng_;
  size_t num_records_ = 0;
  size_t payload_size_ = 0;  ///< record size before the checksum suffix
  HypercubeGeometry geometry_;
  PirSessionRegistry sessions_;
  std::vector<XorPirServer> servers_;  ///< [group0 m0, group0 m1, ...]
  std::vector<PirServerFault> faults_;
  size_t next_group_ = 0;  ///< round-robin start of the next read
  size_t failovers_ = 0;
  size_t corrupt_detected_ = 0;
};

}  // namespace tripriv
