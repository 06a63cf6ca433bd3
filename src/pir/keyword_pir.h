// Keyword PIR: retrieval by key instead of index.
//
// Practical queries name a key ("the record of patient 4711"), not an array
// position. Standard reduction (Chor, Gilboa & Naor): the server publishes
// a sorted key array; the client binary-searches it with O(log n) index-PIR
// reads, then retrieves the value — no server learns which key was probed.
// Built on the 2-server XOR scheme: RecursivePirRead at d = 1, so a probe
// uploads 64 + n bits and every probe's PirStats accumulate into the
// caller's struct.

#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "pir/it_pir.h"
#include "pir/recursive_pir.h"

namespace tripriv {

/// A replicated key-value PIR store (two non-colluding servers).
class KeywordPirStore {
 public:
  /// Builds the store from key-value pairs (keys must be unique; they are
  /// sorted internally). Values are fixed 8-byte payloads.
  static Result<KeywordPirStore> Create(
      std::vector<std::pair<uint64_t, uint64_t>> entries);

  size_t size() const { return geometry_.n; }

  /// Privately looks up `key`; nullopt when absent. Accumulates into
  /// `stats` (see the PirStats contract) over the O(log n) underlying PIR
  /// reads.
  Result<std::optional<uint64_t>> Lookup(uint64_t key, Rng* rng,
                                         PirStats* stats = nullptr);

  /// Combined view of both servers' observed queries (for the evaluation
  /// harness).
  size_t queries_observed() const;

 private:
  // Each record stores key (8 bytes LE) + value (8 bytes LE).
  XorPirServer server_a_;
  XorPirServer server_b_;
  HypercubeGeometry geometry_;  ///< d = 1 over the sorted entries
};

}  // namespace tripriv

