// Epoch-pinned private reads over the mutable protected database.
//
// The PIR servers of pir/it_pir.h answer over a fixed record array; the
// mutable database (table/versioned_table.h) replaces that array on every
// epoch flip. EpochPirReader bridges the two: each read batch pins ONE
// epoch, renders (or reuses) the replica for exactly that epoch's
// protected table, and runs the whole batch through RecursivePirBatchRead
// against the frozen replica. Flips landing mid-batch are invisible — the
// pin freezes the snapshot — so a batch is bit-identical at any thread
// count and under any interleaving with the writer.
//
// User privacy composes with respondent privacy here exactly as the paper's
// framework prescribes: the records served are the *protected* (centroid-
// masked, k-anonymous) rows — a PIR user retrieves without revealing their
// interest (user dimension), and what they retrieve is already safe for
// respondents (respondent dimension).
//
// The reader caches one replica per epoch, at most two entries — matching
// the manager's live-epoch bound — so a flip costs one rebuild, not one
// rebuild per read. Each read aliases that replica 2^d times: replicas
// built from one pinned epoch are byte-identical, and answers depend only
// on the queries, so aliasing trades nothing but the per-replica trust
// split, which an in-process reader never had.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "pir/it_pir.h"
#include "pir/recursive_pir.h"
#include "table/versioned_table.h"
#include "util/random.h"
#include "util/status.h"

namespace tripriv {

class ThreadPool;

/// Fixed-width byte records of a protected table, one per row: every cell
/// rendered with Value::ToDisplayString, joined with '|', then zero-padded
/// to the longest row (XOR PIR needs equal-length records; the padding
/// byte cannot collide with text).
std::vector<std::vector<uint8_t>> SnapshotRecords(const DataTable& table);

/// Decodes a SnapshotRecords record back to its text (padding stripped).
std::string RecordToString(const std::vector<uint8_t>& record);

/// How an EpochPirReader serves its reads.
struct EpochPirOptions {
  /// Hypercube dimension d in [1, 8] of the 2^d-server scheme of
  /// pir/recursive_pir.h (1 = the 2-server scheme). Any other value fails
  /// every read with kInvalidArgument.
  size_t dimensions = 1;
  /// Ignored: every replica is built in the dense layout, the server's
  /// only record store (see XorPirServer::Create).
  bool preprocess = false;
  /// Session key for expansion scratch — an allowlisted tenant class
  /// (obs::kClass* index), never a principal id.
  uint8_t tenant_class = 0;
};

/// Per-epoch replica cache + batch read driver; see file comment. Not
/// thread-safe itself (one reader per thread; the pinned epochs they share
/// are immutable).
class EpochPirReader {
 public:
  /// `manager` must outlive the reader.
  explicit EpochPirReader(EpochManager* manager, EpochPirOptions options = {})
      : manager_(manager), options_(options) {}

  /// Privately retrieves row `index` of the CURRENT epoch's protected
  /// table (pins it for the duration of the read). Single reads are
  /// inline; parallelism lives in ReadBatch.
  Result<std::vector<uint8_t>> Read(size_t index, Rng* rng);

  /// Batched private reads, all against ONE pinned epoch: the batch is a
  /// consistent snapshot even if flips land while it runs. Answers are
  /// positional; bit-identical at any thread count.
  Result<std::vector<std::vector<uint8_t>>> ReadBatch(
      const std::vector<size_t>& indices, Rng* rng, ThreadPool* pool = nullptr);

  /// Epoch the most recent (batch) read was served from (0 before any).
  uint64_t last_served_epoch() const { return last_served_epoch_; }
  /// Replica builds so far (cache misses; flips cost one each).
  uint64_t replica_builds() const { return replica_builds_; }
  /// Accumulated upload/download bits across all reads.
  const PirStats& stats() const { return stats_; }
  /// Expansion sessions. Sessions for epochs older than the newest
  /// rendered one are invalidated at render time — the EpochManager flip
  /// hook.
  const PirSessionRegistry& sessions() const { return sessions_; }
  /// Bytes currently held by the cached replicas' dense layouts.
  uint64_t preprocess_bytes() const;

 private:
  /// One epoch's frozen replica (aliased 2^d times at read time) plus its
  /// hypercube geometry.
  struct Replicas {
    uint64_t epoch = 0;
    std::unique_ptr<XorPirServer> replica;
    HypercubeGeometry geometry;
  };

  /// The replica for `pinned`'s epoch, building and caching it on miss (at
  /// most 2 cached epochs, oldest evicted — the live-epoch bound).
  Result<Replicas*> ReplicasFor(const PinnedEpoch& pinned);

  EpochManager* manager_;
  EpochPirOptions options_;
  std::vector<Replicas> cache_;
  PirSessionRegistry sessions_;
  uint64_t last_served_epoch_ = 0;
  uint64_t replica_builds_ = 0;
  PirStats stats_;
};

}  // namespace tripriv
