#include "pir/recursive_pir.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <string>

#include "pir/xor_kernel.h"

namespace tripriv {
namespace {

bool GetBit(const std::vector<uint8_t>& bits, size_t i) {
  return (bits[i / 8] >> (i % 8)) & 1u;
}

void SetBit(std::vector<uint8_t>* bits, size_t i) {
  (*bits)[i / 8] |= static_cast<uint8_t>(1u << (i % 8));
}

/// side^d >= n without overflow: the multiply only runs while the product
/// stays <= n, and a factor that would push past n returns early.
bool PowAtLeast(size_t side, size_t d, size_t n) {
  size_t acc = 1;
  for (size_t k = 0; k < d; ++k) {
    if (acc > n / side) return true;
    acc *= side;
  }
  return acc >= n;
}

/// Axis strides of the hypercube layout: stride[d-1] = 1, axis 0 outermost.
std::vector<size_t> Strides(const HypercubeGeometry& g) {
  std::vector<size_t> stride(g.d, 1);
  for (size_t k = g.d; k-- > 1;) stride[k - 1] = stride[k] * g.side;
  return stride;
}

/// Depth-first walk of the product of the outer axes' set-coordinate
/// lists, emitting each selected innermost row below n. Coordinate lists
/// are ascending and deeper axes only add to the cell index, so a cell >= n
/// prunes the rest of its axis level — overhang cells are never even
/// visited. A row that lies wholly below n is the innermost axis bitmap
/// itself: it is ORed in at bit offset `base` 64 bits at a time and
/// counted by its popcount. Only a last row that overhangs n walks its bits.
struct ProductExpander {
  const std::vector<std::vector<size_t>>& outer;  ///< axes 0 .. d-2
  const std::vector<uint8_t>& row;  ///< innermost axis bitmap, padding zero
  uint64_t row_cells;               ///< popcount of `row`
  size_t side;
  const std::vector<size_t>& stride;
  size_t n;
  std::vector<uint8_t>* flat;
  uint64_t emitted = 0;

  void Walk(size_t axis, size_t base) {
    if (axis == outer.size()) {
      if (base + side <= n) {
        OrRow(base);
        emitted += row_cells;
        return;
      }
      for (size_t c = 0; base + c < n; ++c) {  // innermost stride is 1
        if (!GetBit(row, c)) continue;
        SetBit(flat, base + c);
        ++emitted;
      }
      return;
    }
    for (size_t c : outer[axis]) {
      const size_t cell = base + c * stride[axis];
      if (cell >= n) break;
      Walk(axis + 1, cell);
    }
  }

  /// flat |= row << base, 64 row bits at a time, then a byte tail. Each
  /// word's top `shift` bits carry into the next word or byte; the last
  /// carry byte is written only when it holds a bit. Every bit lands below
  /// base + side <= n, inside `flat`.
  void OrRow(size_t base) {
    uint8_t* out = flat->data() + base / 8;
    const unsigned shift = base % 8;
    uint64_t carry = 0;
    size_t k = 0;
    // Bitmaps are LSB-first, so 8 bitmap bytes are one word on a
    // little-endian host; elsewhere the byte loop ORs the whole row.
    if constexpr (std::endian::native == std::endian::little) {
      for (; k + 8 <= row.size(); k += 8) {
        uint64_t bits = 0;
        uint64_t word = 0;
        std::memcpy(&bits, row.data() + k, 8);
        std::memcpy(&word, out + k, 8);
        word |= bits << shift | carry;
        std::memcpy(out + k, &word, 8);
        carry = shift == 0 ? 0 : bits >> (64 - shift);
      }
    }
    for (; k < row.size(); ++k) {
      out[k] |= static_cast<uint8_t>(row[k] << shift | carry);
      carry = static_cast<uint8_t>(row[k] >> (8 - shift));
    }
    if (carry != 0) out[k] |= static_cast<uint8_t>(carry);
  }
};

}  // namespace

Result<HypercubeGeometry> HypercubeGeometry::Balanced(size_t n, size_t d) {
  if (n < 1) return Status::InvalidArgument("hypercube needs >= 1 record");
  if (d < 1 || d > 8) {
    return Status::InvalidArgument("hypercube dimension must be in [1, 8]");
  }
  size_t side = static_cast<size_t>(
      std::pow(static_cast<double>(n), 1.0 / static_cast<double>(d)));
  if (side < 1) side = 1;
  // The float root can land one off in either direction; fix up exactly.
  while (!PowAtLeast(side, d, n)) ++side;
  while (side > 1 && PowAtLeast(side - 1, d, n)) --side;
  HypercubeGeometry g;
  g.n = n;
  g.side = side;
  g.d = d;
  return g;
}

std::vector<size_t> HypercubeGeometry::Coordinates(size_t i) const {
  std::vector<size_t> coords(d);
  for (size_t k = d; k-- > 0;) {
    coords[k] = i % side;
    i /= side;
  }
  return coords;
}

std::vector<std::vector<uint8_t>> ExpandAxisSelections(
    uint64_t seed, const HypercubeGeometry& g) {
  // A fresh generator per seed: expansion depends on nothing but the 64
  // bits shipped, so client and replica derive byte-identical bitmaps.
  Rng rng(seed);
  std::vector<std::vector<uint8_t>> axes(g.d);
  for (size_t k = 0; k < g.d; ++k) {
    axes[k] = RandomSelectionBits(g.side, &rng);
  }
  return axes;
}

uint64_t ExpandProductSelection(
    const std::vector<std::vector<uint8_t>>& axis_bits,
    const HypercubeGeometry& g, std::vector<uint8_t>* flat) {
  TRIPRIV_CHECK(flat != nullptr);
  TRIPRIV_CHECK(axis_bits.size() == g.d);
  for (const auto& axis : axis_bits) {
    TRIPRIV_CHECK(axis.size() == (g.side + 7) / 8);
  }
  // Ascending set-coordinate lists of the outer axes: the walk visits only
  // selected rows, not all side^(d-1).
  std::vector<std::vector<size_t>> outer(g.d - 1);
  for (size_t k = 0; k + 1 < g.d; ++k) {
    for (size_t c = 0; c < g.side; ++c) {
      if (GetBit(axis_bits[k], c)) outer[k].push_back(c);
    }
  }
  // The innermost bitmap with its padding bits cleared, so a whole-row OR
  // sets exactly its selected cells and its popcount counts them.
  std::vector<uint8_t> row = axis_bits[g.d - 1];
  if (g.side % 8 != 0) {
    row.back() &= static_cast<uint8_t>((1u << (g.side % 8)) - 1u);
  }
  uint64_t row_cells = 0;
  for (uint8_t byte : row) row_cells += std::popcount(byte);
  flat->assign((g.n + 7) / 8, 0);
  const std::vector<size_t> stride = Strides(g);
  ProductExpander expander{outer, row, row_cells, g.side, stride, g.n, flat};
  expander.Walk(0, 0);
  return expander.emitted;
}

PirSessionRegistry::Session* PirSessionRegistry::Establish(
    uint8_t tenant_class, const HypercubeGeometry& geometry, uint64_t epoch) {
  Session& s = sessions_[tenant_class];
  s.tenant_class = tenant_class;
  s.geometry = geometry;
  s.epoch = epoch;
  return &s;
}

PirSessionRegistry::Session* PirSessionRegistry::Find(uint8_t tenant_class) {
  auto it = sessions_.find(tenant_class);
  return it == sessions_.end() ? nullptr : &it->second;
}

const PirSessionRegistry::Session* PirSessionRegistry::Find(
    uint8_t tenant_class) const {
  auto it = sessions_.find(tenant_class);
  return it == sessions_.end() ? nullptr : &it->second;
}

void PirSessionRegistry::InvalidateBefore(uint64_t epoch) {
  for (auto& [cls, s] : sessions_) {
    if (s.epoch >= epoch) continue;
    s.geometry = HypercubeGeometry{};
    s.axis_scratch.clear();
    // Actually release the flat scratch: it is sized for the stale epoch's
    // database and may be the largest allocation a session holds.
    std::vector<uint8_t>().swap(s.flat_scratch);
  }
}

uint64_t PirSessionRegistry::total_reads() const {
  uint64_t total = 0;
  for (const auto& [cls, s] : sessions_) total += s.reads;
  return total;
}

uint64_t PirSessionRegistry::total_upload_bits() const {
  uint64_t total = 0;
  for (const auto& [cls, s] : sessions_) total += s.upload_bits;
  return total;
}

uint64_t PirSessionRegistry::total_expanded_cells() const {
  uint64_t total = 0;
  for (const auto& [cls, s] : sessions_) total += s.expanded_cells;
  return total;
}

Result<std::vector<HypercubeQuery>> BuildHypercubeQueries(
    const HypercubeGeometry& g, size_t index, Rng* rng) {
  TRIPRIV_CHECK(rng != nullptr);
  if (g.n == 0 || g.d == 0) {
    return Status::InvalidArgument("uninitialized hypercube geometry");
  }
  if (index >= g.n) return Status::OutOfRange("record index out of range");
  // One draw per read — the entire base selection expands from this seed.
  const uint64_t seed = rng->NextU64();
  const std::vector<std::vector<uint8_t>> base = ExpandAxisSelections(seed, g);
  const std::vector<size_t> coords = g.Coordinates(index);
  std::vector<HypercubeQuery> queries(g.num_servers());
  // Only the all-unflipped replica may hold the seed (see recursive_pir.h):
  // seed plus any flipped axis would difference out the target coordinate.
  queries[0].seed_only = true;
  queries[0].seed = seed;
  for (size_t s = 1; s < queries.size(); ++s) {
    queries[s].axis_bits = base;
    for (size_t k = 0; k < g.d; ++k) {
      if ((s >> k) & 1u) {
        FlipSelectionBit(&queries[s].axis_bits[k], coords[k]);
      }
    }
  }
  return queries;
}

Result<std::vector<uint8_t>> AnswerHypercubeQuery(
    XorPirServer* server, const HypercubeQuery& query,
    const HypercubeGeometry& g, ThreadPool* pool,
    PirSessionRegistry::Session* session) {
  TRIPRIV_CHECK(server != nullptr);
  if (server->num_records() != g.n) {
    return Status::InvalidArgument("server does not replicate the geometry");
  }
  std::vector<std::vector<uint8_t>> local_axes;
  const std::vector<std::vector<uint8_t>>* axes = nullptr;
  if (query.seed_only) {
    auto& dst = session != nullptr ? session->axis_scratch : local_axes;
    dst = ExpandAxisSelections(query.seed, g);
    axes = &dst;
  } else {
    if (query.axis_bits.size() != g.d) {
      return Status::InvalidArgument("query has wrong axis count");
    }
    const size_t bytes = (g.side + 7) / 8;
    const uint8_t pad_mask =
        g.side % 8 == 0 ? 0
                        : static_cast<uint8_t>(~((1u << (g.side % 8)) - 1u));
    for (const auto& axis : query.axis_bits) {
      if (axis.size() != bytes) {
        return Status::InvalidArgument("axis bitmap has wrong length");
      }
      if (pad_mask != 0 && (axis.back() & pad_mask) != 0) {
        return Status::InvalidArgument("axis bitmap has non-canonical padding");
      }
    }
    axes = &query.axis_bits;
  }
  std::vector<uint8_t> local_flat;
  std::vector<uint8_t>* flat =
      session != nullptr ? &session->flat_scratch : &local_flat;
  const uint64_t cells = ExpandProductSelection(*axes, g, flat);
  if (session != nullptr) session->expanded_cells += cells;
  return server->Answer(*flat, pool);
}

Result<std::vector<uint8_t>> RecursivePirRead(
    const std::vector<XorPirServer*>& servers, const HypercubeGeometry& g,
    size_t index, Rng* rng, ThreadPool* pool, PirStats* stats,
    PirSessionRegistry::Session* session) {
  TRIPRIV_CHECK(rng != nullptr);
  if (servers.size() != g.num_servers()) {
    return Status::InvalidArgument("recursive scheme needs 2^d replicas");
  }
  for (auto* s : servers) TRIPRIV_CHECK(s != nullptr);
  const size_t size = servers[0]->record_size();
  for (auto* s : servers) {
    if (s->num_records() != g.n || s->record_size() != size) {
      return Status::InvalidArgument("servers must hold identical replicas");
    }
  }
  TRIPRIV_ASSIGN_OR_RETURN(auto queries, BuildHypercubeQueries(g, index, rng));

  // Serial over replicas (the pool shards each replica's XOR sweep inside
  // Answer), so the observation transcript is a fixed function of the
  // queries at any thread count.
  std::vector<uint8_t> acc(size, 0);
  size_t upload = 0;
  for (size_t s = 0; s < servers.size(); ++s) {
    upload += queries[s].upload_bits(g);
    TRIPRIV_ASSIGN_OR_RETURN(
        auto answer, AnswerHypercubeQuery(servers[s], queries[s], g, pool,
                                          session));
    XorBytesInto(acc.data(), answer.data(), acc.size());
  }
  if (stats != nullptr) {
    // Accumulate, never overwrite — see the PirStats contract in it_pir.h.
    stats->upload_bits += upload;
    stats->download_bits += servers.size() * 8 * size;
  }
  if (session != nullptr) {
    session->reads += 1;
    session->upload_bits += upload;
  }
  return acc;
}

Result<std::vector<std::vector<uint8_t>>> RecursivePirBatchRead(
    const std::vector<XorPirServer*>& servers, const HypercubeGeometry& g,
    const std::vector<size_t>& indices, Rng* rng, ThreadPool* pool,
    PirStats* stats, PirSessionRegistry::Session* session) {
  std::vector<std::vector<uint8_t>> answers;
  answers.reserve(indices.size());
  // Items run serially in index order — exactly the rng draws and the
  // observation transcript of a RecursivePirRead loop — and one session's
  // scratch serves every item. The batch's totals reach `stats` only once
  // every item succeeded.
  PirStats batch;
  for (size_t i = 0; i < indices.size(); ++i) {
    auto answer =
        RecursivePirRead(servers, g, indices[i], rng, pool, &batch, session);
    if (!answer.ok()) {
      return Status(answer.status().code(),
                    "PIR batch slot " + std::to_string(i) +
                        " failed: " + answer.status().message());
    }
    answers.push_back(std::move(answer).value());
  }
  if (stats != nullptr) {
    stats->upload_bits += batch.upload_bits;
    stats->download_bits += batch.download_bits;
  }
  return answers;
}

}  // namespace tripriv
