// Information-theoretic private information retrieval (Chor, Goldreich,
// Kushilevitz & Sudan [8]).
//
// The user-privacy primitive: retrieve record i from replicated,
// non-colluding servers such that no single server learns anything about i.
// This header holds the server side every XOR-PIR read shares: a replica
// answers a selection bitmap with the XOR of the records it selects. The
// one read driver is RecursivePirRead (pir/recursive_pir.h): Chor et al.'s
// 2-server scheme is its d = 1 case (replica 0 expands a random subset S
// from a 64-bit seed, replica 1 gets S xor {i}), and the 4-server cube its
// d = 2 case.
// The answer path is the system's steady-state hot loop. Create writes the
// records into one dense, word-strided buffer (the XOR analog of SealPIR's
// preprocess_ntt), the server's only record store, which the sweep streams
// front to back: each selected record's words are XORed into a local tile
// of at most 256 bytes, and the tile reaches the answer once per sweep (a
// wider record walks the selection once per tile). The sweep is optionally
// sharded across a ThreadPool with per-shard partial accumulators merged in
// fixed shard order, so the answer is bit-identical at any thread count.
//
// Recording what a server observed (its view of the protocol, used by the
// evaluation harness and the attack demos) is opt-in and bounded: under
// sustained traffic an always-on, unbounded log of O(n)-bit selection
// vectors is a memory leak, so servers only count queries unless
// EnableObservationLog turns the ring buffer on.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/annotations.h"
#include "table/aligned_buffer.h"
#include "util/random.h"
#include "util/status.h"

namespace tripriv {

class ThreadPool;

/// Uniformly random `n`-bit selection bitmap, packed LSB-first into bytes,
/// with the padding bits of the last byte zeroed so observed queries are
/// canonical. Fills 8 bitmap bytes per NextU64 draw (ceil(n/64) draws).
TRIPRIV_SENSITIVE(record)
std::vector<uint8_t> RandomSelectionBits(size_t n, Rng* rng);

/// Flips bit `i` of a packed LSB-first selection bitmap.
void FlipSelectionBit(std::vector<uint8_t>* bits, size_t i);

/// One PIR server: a replica of the database of equal-length records,
/// answering XOR-subset queries.
class XorPirServer {
 public:
  /// Requires >= 1 record; all records must have equal, non-zero length.
  /// Copies the records into the dense layout and drops `records`: record i
  /// sits at byte i * stride of one 64-byte-aligned buffer, stride being
  /// record_size() rounded up to 8, with zero padding. The sweep is bound by
  /// memory traffic, so the layout stores each record once and nothing
  /// else. A copy of the server owns a copy of the layout.
  static Result<XorPirServer> Create(std::vector<std::vector<uint8_t>> records);

  /// The in-place form, which the records form calls: builds the layout of
  /// `num_records` records of `record_size` bytes by calling `write(i, out)`
  /// once per record, in index order, to write record i's `record_size`
  /// bytes at `out`; the stride padding stays zero. Requires num_records >= 1
  /// and record_size >= 1, and refuses a layout whose byte size would not
  /// fit in size_t.
  static Result<XorPirServer> Create(
      size_t num_records, size_t record_size,
      const std::function<void(size_t i, uint8_t* out)>& write);

  size_t num_records() const { return num_records_; }
  size_t record_size() const { return record_size_; }

  /// XOR of the records selected by `selection` (one bit per record, packed
  /// LSB-first into bytes). Counts the query and, when the observation log
  /// is enabled, records the selection. `pool` (optional) shards the
  /// accumulation across workers; per-shard partial accumulators are
  /// XOR-merged in shard order, so the answer is bit-identical to the
  /// serial path at any thread count.
  TRIPRIV_SENSITIVE(record)
  Result<std::vector<uint8_t>> Answer(const std::vector<uint8_t>& selection,
                                      ThreadPool* pool = nullptr);

  /// The pure compute half of Answer: thread-safe const, no counting or
  /// logging. Batch executors call ObserveQuery serially in submission
  /// order, then fan ComputeAnswer out across workers.
  Result<std::vector<uint8_t>> ComputeAnswer(
      const std::vector<uint8_t>& selection, ThreadPool* pool = nullptr) const;

  /// No-op: Create builds the dense layout. Kept while tripriv_bench
  /// still calls it.
  void Preprocess() {}
  /// Bytes held by the dense layout: num_records() * stride.
  uint64_t preprocess_bytes() const { return dense_.size_bytes(); }

  /// Injected adversity for error-path tests: once armed with a non-OK
  /// status, every ComputeAnswer (and therefore Answer) call fails with it
  /// — the replica behaves as if it diverged from its pair. Arm with OK to
  /// disarm. Set only while no batch is in flight; reads are const and
  /// thread-safe.
  void InjectComputeFault(Status fault) { compute_fault_ = std::move(fault); }

  /// The bookkeeping half of Answer: increments the query counter and, when
  /// the log is enabled, appends `selection` to the bounded ring. Not
  /// thread-safe — batch executors call it from their serial stage.
  void ObserveQuery(const std::vector<uint8_t>& selection);

  /// Opt-in attack-analysis mode: retain the most recent `capacity` (>= 1)
  /// selection bitmaps for observed_query() inspection. Off by default.
  void EnableObservationLog(size_t capacity);
  bool observation_enabled() const { return observe_capacity_ > 0; }

  /// Total queries answered (counted whether or not the log is enabled).
  uint64_t queries_answered() const { return queries_answered_; }

  /// Bytes this replica XORed into answer accumulators: popcount of each
  /// observed selection times the record size, accumulated per query. The
  /// aggregate work metric of the PIR hot loop — never per-query data.
  uint64_t bytes_xored() const { return bytes_xored_; }

  /// Observations currently retained: at most the enabled capacity, zero
  /// unless EnableObservationLog was called.
  size_t num_observed() const { return observed_.size(); }
  /// The `i`-th retained observation, oldest first. Requires i < num_observed().
  TRIPRIV_SENSITIVE(record)
  const std::vector<uint8_t>& observed_query(size_t i) const;
  /// The most recent observation. Requires num_observed() > 0.
  TRIPRIV_SENSITIVE(record)
  const std::vector<uint8_t>& last_observed_query() const;

  /// Direct (non-private) copy of record `i`'s record_size() bytes, for
  /// testing and for the baseline "no PIR" comparison.
  std::vector<uint8_t> record(size_t i) const;

 private:
  /// XORs the records selected in [begin, end) into `acc` (record_size()
  /// bytes). The running XOR stays in a local tile of at most 32 words
  /// (256 bytes) and is XORed into `acc` once; a wider record walks the set
  /// bits (64 selection bits per word) once per tile.
  void AccumulateRange(const std::vector<uint8_t>& selection, size_t begin,
                       size_t end, uint8_t* acc) const;

  /// The dense layout (see Create): record i at byte i * stride_,
  /// zero-padded to stride_ (a multiple of 8).
  AlignedWordBuffer dense_;
  size_t num_records_ = 0;
  size_t record_size_ = 0;
  size_t stride_ = 0;
  Status compute_fault_;  ///< injected ComputeAnswer failure (OK = disarmed)
  uint64_t queries_answered_ = 0;
  uint64_t bytes_xored_ = 0;
  /// Bounded observation ring (attack-analysis mode). `observed_` holds at
  /// most `observe_capacity_` entries; once full, `observe_head_` is the
  /// slot holding the oldest entry (and the one the next query overwrites).
  size_t observe_capacity_ = 0;
  size_t observe_head_ = 0;
  std::vector<std::vector<uint8_t>> observed_;
};

/// Communication accounting. Contract: EVERY read path — single, batch,
/// epoch, keyword — ACCUMULATES into the caller's struct with `+=`, never
/// overwrites, so one PirStats can meter an arbitrary interleaving of read
/// paths as a running total. Callers wanting per-query numbers pass a
/// freshly zeroed struct (or call Reset between reads).
struct PirStats {
  size_t upload_bits = 0;
  size_t download_bits = 0;

  void Reset() { upload_bits = download_bits = 0; }
};

}  // namespace tripriv
