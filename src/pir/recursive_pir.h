// Recursive d-dimensional information-theoretic PIR with seed-compressed
// queries — the SealPIR/OnionPIR shape mapped onto replicated XOR servers.
//
// RecursivePirRead / RecursivePirBatchRead are the one XOR-PIR read driver.
// Chor et al.'s hypercube scheme is one protocol at every dimension: d = 1
// is the 2-server scheme (a random subset S and S xor {i}), d = 2 the
// 4-server cube, and higher d trade replicas for upload. The textbook
// 2-server scheme ships 2n selection bits per query; at 10^6 records the
// query upload dominates everything else the serving stack does. Here:
//
//   * the database is laid out as a hypercube of `side^d >= n` cells
//     (HypercubeGeometry), the target index split into one coordinate per
//     axis;
//   * the client draws ONE uniformly random selection bitmap per axis —
//     derived from a single 64-bit PRG seed via the RandomSelectionBits
//     draw discipline, so expansion is a pure function of the seed;
//   * replica s in [0, 2^d) answers the XOR of every cell in the product
//     selection, where axis k's bitmap is flipped at the target coordinate
//     iff bit k of s is set. XORing all 2^d answers cancels every cell an
//     even number of servers selected, leaving exactly the target record;
//   * upload: the all-unflipped replica (s = 0) receives ONLY the 64-bit
//     seed and expands its axis bitmaps locally; every other replica
//     receives explicit per-axis bitmaps, O(d * n^(1/d)) bits. The seed
//     must not be sent to a replica that also receives a flipped axis —
//     it could expand the unflipped bitmap and difference out the target
//     coordinate — so only s = 0 gets it. Total upload per read:
//     64 + (2^d - 1) * d * side bits: 64 + n at d = 1, versus the
//     textbook scheme's 2n.
//
// Privacy: each replica sees either a seed (whose expansion is a uniform
// bitmap per axis) or explicit bitmaps that are uniform on their own
// (flipping a fixed bit of a uniform bitmap preserves uniformity), so no
// single replica learns anything about the target — Chor et al.'s
// single-server blindness argument, axis by axis.
//
// Every replica expands its axis bitmaps into the canonical flat n-bit
// product selection (padding bits zero, overhang cells of the geometric
// cube never set) before answering, so observed transcripts, popcount
// accounting, and the byte-identical-at-any-thread-count contract are
// EXACTLY those of XorPirServer::Answer over an n-bit bitmap.
//
// PirSessionRegistry is the OnionPIR `client_galois_keys_` shape mapped to
// this scheme: per-client expansion state that servers retain across a
// batch, keyed by an allowlisted tenant class (obs::kClass* index — a
// coarse service tier, NEVER a principal id) so holding the state does not
// build per-user profiles. A session caches the epoch's geometry and the
// axis/flat scratch buffers, so a batch of reads reuses one allocation
// instead of reallocating O(n/8) bytes per read.

#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/annotations.h"
#include "pir/it_pir.h"
#include "util/random.h"
#include "util/status.h"

namespace tripriv {

class ThreadPool;

/// Hypercube layout of an n-record database: d axes of `side` cells each,
/// side^d >= n, cell index = sum_k coord_k * stride_k with axis 0 outermost
/// (stride_{d-1} = 1). Cells with linear index >= n overhang the database
/// and are never selected.
struct HypercubeGeometry {
  size_t n = 0;
  size_t side = 0;
  size_t d = 0;

  /// Smallest balanced geometry for `n` records in `d` dimensions
  /// (side = ceil(n^(1/d))). Requires n >= 1 and d >= 1.
  static Result<HypercubeGeometry> Balanced(size_t n, size_t d);

  /// Replicas the scheme needs: 2^d.
  size_t num_servers() const { return size_t{1} << d; }
  /// Explicit per-axis upload of one non-seed replica, in bits.
  size_t axis_bits() const { return d * side; }
  /// coords[k] of flat record index `i` (requires i < side^d).
  std::vector<size_t> Coordinates(size_t i) const;
};

/// The query one replica receives: either the compact PRG seed (replica 0
/// only — see file comment) or explicit per-axis selection bitmaps, packed
/// LSB-first with canonical (zero) padding per axis.
struct HypercubeQuery {
  bool seed_only = false;
  uint64_t seed = 0;
  TRIPRIV_SENSITIVE(record)
  std::vector<std::vector<uint8_t>> axis_bits;

  /// Bits this query ships: 64 for the seed form, d*side explicit.
  size_t upload_bits(const HypercubeGeometry& g) const {
    return seed_only ? 64 : g.axis_bits();
  }
};

/// Expands `seed` into the base (unflipped) per-axis selection bitmaps —
/// a pure function of the seed: axis bitmaps are drawn in axis order with
/// the RandomSelectionBits draw discipline, so client and replica derive
/// byte-identical bitmaps from the same 64 bits.
TRIPRIV_SENSITIVE(record)
std::vector<std::vector<uint8_t>> ExpandAxisSelections(
    uint64_t seed, const HypercubeGeometry& g);

/// Expands per-axis bitmaps into the canonical flat n-bit product
/// selection: bit i set iff every axis bitmap has the bit of coordinate k
/// of cell i set. Padding bits are zero and overhang cells (>= n) are
/// skipped, so the result is exactly what XorPirServer observation and
/// popcount accounting expect. Writes into `*flat` (resized; reusable
/// session scratch). Returns the number of cells selected — the expansion
/// work metric.
TRIPRIV_SENSITIVE(record)
uint64_t ExpandProductSelection(
    const std::vector<std::vector<uint8_t>>& axis_bits,
    const HypercubeGeometry& g, std::vector<uint8_t>* flat);

/// Per-tenant-class expansion/session state retained across a batch (the
/// OnionPIR client_galois_keys_ shape; see file comment). Not thread-safe:
/// sessions live on the serial read path, like the rng draws.
class PirSessionRegistry {
 public:
  struct Session {
    uint8_t tenant_class = 0;
    uint64_t epoch = 0;
    HypercubeGeometry geometry;
    /// Reusable expansion scratch (axis bitmaps + flat product bitmap).
    TRIPRIV_SENSITIVE(record)
    std::vector<std::vector<uint8_t>> axis_scratch;
    TRIPRIV_SENSITIVE(record)
    std::vector<uint8_t> flat_scratch;
    /// Per-class accounting (class is allowlisted, so these are exportable).
    uint64_t reads = 0;
    uint64_t upload_bits = 0;
    uint64_t expanded_cells = 0;
  };

  /// The session for `tenant_class`, created on first use and refreshed
  /// (geometry swapped, scratch kept) when `epoch` moved past the cached
  /// one. Counters survive refreshes.
  Session* Establish(uint8_t tenant_class, const HypercubeGeometry& geometry,
                     uint64_t epoch);
  /// The session for `tenant_class`, or null.
  Session* Find(uint8_t tenant_class);
  const Session* Find(uint8_t tenant_class) const;
  /// Epoch-flip hook: drops the cached geometry and scratch of every
  /// session established for an epoch before `epoch` (counters survive).
  void InvalidateBefore(uint64_t epoch);

  size_t num_sessions() const { return sessions_.size(); }
  uint64_t total_reads() const;
  uint64_t total_upload_bits() const;
  uint64_t total_expanded_cells() const;

 private:
  std::map<uint8_t, Session> sessions_;
};

/// Builds the 2^d per-replica queries for a read of record `index`: one
/// NextU64 draw for the seed, then the flips. Exposed for tests and for
/// transports that ship queries; RecursivePirRead composes it.
Result<std::vector<HypercubeQuery>> BuildHypercubeQueries(
    const HypercubeGeometry& g, size_t index, Rng* rng);

/// Replica-side processing of one query: expand the axis bitmaps (from the
/// seed for the s = 0 form), expand the flat product selection, and answer.
/// `session` (optional) provides reusable scratch and accrues expansion
/// accounting; `pool` shards the XOR sweep.
Result<std::vector<uint8_t>> AnswerHypercubeQuery(
    XorPirServer* server, const HypercubeQuery& query,
    const HypercubeGeometry& g, ThreadPool* pool = nullptr,
    PirSessionRegistry::Session* session = nullptr);

/// Retrieves record `index` via the recursive scheme. `servers` must hold
/// g.num_servers() identical replicas (entries may alias one object for
/// benching — answers only depend on the queries). Draws exactly one
/// NextU64 from `rng` per read; `stats` accumulates (see PirStats
/// contract); `session` reuses expansion scratch across reads.
Result<std::vector<uint8_t>> RecursivePirRead(
    const std::vector<XorPirServer*>& servers, const HypercubeGeometry& g,
    size_t index, Rng* rng, ThreadPool* pool = nullptr,
    PirStats* stats = nullptr, PirSessionRegistry::Session* session = nullptr);

/// Batched recursive reads, positional answers. Items run serially in
/// index order (the rng transcript of a RecursivePirRead loop); `pool`
/// shards each replica's XOR sweep, so answers are bit-identical at any
/// thread count. One session's scratch serves the whole batch. The first
/// failing item ends the batch with its typed error, naming its slot, and
/// a failed batch adds nothing to `stats`.
Result<std::vector<std::vector<uint8_t>>> RecursivePirBatchRead(
    const std::vector<XorPirServer*>& servers, const HypercubeGeometry& g,
    const std::vector<size_t>& indices, Rng* rng, ThreadPool* pool = nullptr,
    PirStats* stats = nullptr, PirSessionRegistry::Session* session = nullptr);

}  // namespace tripriv
