#include "pir/it_pir.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "pir/xor_kernel.h"
#include "util/thread_pool.h"

namespace tripriv {
namespace {

bool GetBit(const std::vector<uint8_t>& bits, size_t i) {
  return (bits[i / 8] >> (i % 8)) & 1u;
}

/// Flips grid cell (row, col) in a flat per-record bitmap, ignoring cells
/// past the end of the database (the grid may overhang n).
void FlipGridCell(std::vector<uint8_t>* flat, size_t row, size_t col,
                  size_t cols, size_t n) {
  const size_t i = row * cols + col;
  if (i < n) FlipSelectionBit(flat, i);
}

/// Calls `fn(i)` for every set selection bit i in [begin, end), ascending.
/// The bitmap is read 64 bits at a time (bytes past its end read as zero),
/// so an all-zero selection word costs no calls.
template <typename Fn>
void ForEachSelected(const std::vector<uint8_t>& selection, size_t begin,
                     size_t end, Fn&& fn) {
  for (size_t w = begin / 64; 64 * w < end; ++w) {
    uint64_t word = 0;
    for (size_t k = 8 * w; k < std::min(8 * w + 8, selection.size()); ++k) {
      word |= uint64_t{selection[k]} << (8 * (k - 8 * w));
    }
    if (64 * w < begin) word &= ~uint64_t{0} << (begin % 64);
    if (64 * w + 64 > end) word &= ~uint64_t{0} >> (64 - end % 64);
    for (; word != 0; word &= word - 1) {
      fn(64 * w + static_cast<size_t>(std::countr_zero(word)));
    }
  }
}

/// Answers below this many XORed bytes stay serial: the fork/join handoff
/// costs more than the kernel saves.
constexpr size_t kMinParallelAnswerBytes = 1 << 15;

}  // namespace

std::vector<uint8_t> RandomSelectionBits(size_t n, Rng* rng) {
  TRIPRIV_CHECK(rng != nullptr);
  std::vector<uint8_t> bits((n + 7) / 8);
  // One NextU64 fills 8 bitmap bytes; bytes are taken from the low end up
  // so the layout is identical on every platform.
  for (size_t i = 0; i < bits.size(); i += 8) {
    const uint64_t word = rng->NextU64();
    const size_t take = bits.size() - i < 8 ? bits.size() - i : 8;
    for (size_t k = 0; k < take; ++k) {
      bits[i + k] = static_cast<uint8_t>(word >> (8 * k));
    }
  }
  // Zero the padding bits so observed queries are canonical.
  if (n % 8 != 0) bits.back() &= static_cast<uint8_t>((1u << (n % 8)) - 1u);
  return bits;
}

void FlipSelectionBit(std::vector<uint8_t>* bits, size_t i) {
  (*bits)[i / 8] ^= static_cast<uint8_t>(1u << (i % 8));
}

Result<XorPirServer> XorPirServer::Create(
    std::vector<std::vector<uint8_t>> records) {
  if (records.empty()) return Status::InvalidArgument("empty database");
  const size_t size = records[0].size();
  if (size == 0) return Status::InvalidArgument("records must be non-empty");
  for (const auto& r : records) {
    if (r.size() != size) {
      return Status::InvalidArgument("records must have equal length");
    }
  }
  XorPirServer server;
  server.records_ = std::move(records);
  return server;
}

void XorPirServer::EnableObservationLog(size_t capacity) {
  TRIPRIV_CHECK(capacity >= 1);
  observe_capacity_ = capacity;
  observe_head_ = 0;
  observed_.clear();
}

void XorPirServer::ObserveQuery(const std::vector<uint8_t>& selection) {
  ++queries_answered_;
  uint64_t selected = 0;
  for (uint8_t byte : selection) {
    selected += static_cast<uint64_t>(std::popcount(byte));
  }
  bytes_xored_ += selected * record_size();
  if (observe_capacity_ == 0) return;
  if (observed_.size() < observe_capacity_) {
    observed_.push_back(selection);
    return;
  }
  observed_[observe_head_] = selection;
  observe_head_ = (observe_head_ + 1) % observe_capacity_;
}

const std::vector<uint8_t>& XorPirServer::observed_query(size_t i) const {
  TRIPRIV_CHECK_LT(i, observed_.size());
  if (observed_.size() < observe_capacity_) return observed_[i];
  return observed_[(observe_head_ + i) % observe_capacity_];
}

const std::vector<uint8_t>& XorPirServer::last_observed_query() const {
  TRIPRIV_CHECK(!observed_.empty());
  return observed_query(observed_.size() - 1);
}

void XorPirServer::Preprocess() {
  if (preprocessed()) return;
  const size_t size = record_size();
  stride_ = (size + 7) / 8 * 8;
  dense_ = AlignedWordBuffer(records_.size() * stride_ / 8);
  uint8_t* out = dense_.bytes();
  for (const std::vector<uint8_t>& record : records_) {
    std::memcpy(out, record.data(), size);
    out += stride_;
  }
}

void XorPirServer::AccumulateRange(const std::vector<uint8_t>& selection,
                                   size_t begin, size_t end,
                                   uint8_t* acc) const {
  const size_t size = record_size();
  if (preprocessed()) {
    const uint8_t* dense = dense_.bytes();
    ForEachSelected(selection, begin, end, [&](size_t i) {
      XorBytesInto(acc, dense + i * stride_, size);
    });
  } else {
    ForEachSelected(selection, begin, end, [&](size_t i) {
      XorBytesInto(acc, records_[i].data(), size);
    });
  }
}

Result<std::vector<uint8_t>> XorPirServer::ComputeAnswer(
    const std::vector<uint8_t>& selection, ThreadPool* pool) const {
  if (!compute_fault_.ok()) return compute_fault_;
  if (selection.size() != (records_.size() + 7) / 8) {
    return Status::InvalidArgument("selection bitmap has wrong length");
  }
  const size_t size = record_size();
  std::vector<uint8_t> acc(size, 0);
  const size_t shards = pool == nullptr ? 1 : pool->NumShards(records_.size());
  if (shards <= 1 || records_.size() * size < kMinParallelAnswerBytes) {
    AccumulateRange(selection, 0, records_.size(), acc.data());
    return acc;
  }
  // Per-shard partial accumulators, XOR-merged in shard order below. XOR is
  // commutative, so the bytes cannot depend on the merge order anyway — the
  // fixed order keeps the parallel path structurally identical to the
  // serial one.
  std::vector<std::vector<uint8_t>> partial(shards,
                                            std::vector<uint8_t>(size, 0));
  pool->ParallelFor(records_.size(),
                    [this, &selection, &partial](size_t shard, size_t begin,
                                                 size_t end) {
                      AccumulateRange(selection, begin, end,
                                      partial[shard].data());
                    });
  for (size_t s = 0; s < shards; ++s) {
    XorBytesInto(acc.data(), partial[s].data(), size);
  }
  return acc;
}

Result<std::vector<uint8_t>> XorPirServer::Answer(
    const std::vector<uint8_t>& selection, ThreadPool* pool) {
  TRIPRIV_ASSIGN_OR_RETURN(auto answer, ComputeAnswer(selection, pool));
  ObserveQuery(selection);
  return answer;
}

Result<std::vector<uint8_t>> TwoServerPirRead(XorPirServer* server_a,
                                              XorPirServer* server_b,
                                              size_t index, Rng* rng,
                                              PirStats* stats) {
  TRIPRIV_CHECK(server_a != nullptr && server_b != nullptr && rng != nullptr);
  const size_t n = server_a->num_records();
  if (server_b->num_records() != n ||
      server_a->record_size() != server_b->record_size()) {
    return Status::InvalidArgument("servers must hold identical replicas");
  }
  if (index >= n) return Status::OutOfRange("record index out of range");

  std::vector<uint8_t> query_a = RandomSelectionBits(n, rng);
  std::vector<uint8_t> query_b = query_a;
  FlipSelectionBit(&query_b, index);

  TRIPRIV_ASSIGN_OR_RETURN(auto answer_a, server_a->Answer(query_a));
  TRIPRIV_ASSIGN_OR_RETURN(auto answer_b, server_b->Answer(query_b));
  XorBytesInto(answer_a.data(), answer_b.data(), answer_a.size());
  if (stats != nullptr) {
    // Accumulate, never overwrite — see the PirStats contract in it_pir.h.
    stats->upload_bits += 2 * n;
    stats->download_bits += 2 * 8 * server_a->record_size();
  }
  return answer_a;
}

Result<std::vector<std::vector<uint8_t>>> TwoServerPirBatchRead(
    XorPirServer* server_a, XorPirServer* server_b,
    const std::vector<size_t>& indices, Rng* rng, ThreadPool* pool,
    PirStats* stats) {
  TRIPRIV_CHECK(server_a != nullptr && server_b != nullptr && rng != nullptr);
  const size_t n = server_a->num_records();
  if (server_b->num_records() != n ||
      server_a->record_size() != server_b->record_size()) {
    return Status::InvalidArgument("servers must hold identical replicas");
  }
  for (size_t index : indices) {
    if (index >= n) return Status::OutOfRange("record index out of range");
  }

  // Serial stage, in index order: draw the selection pairs and log the
  // observations — the exact rng draws and transcript a TwoServerPirRead
  // loop would produce, independent of the worker count.
  std::vector<std::vector<uint8_t>> queries_a(indices.size());
  std::vector<std::vector<uint8_t>> queries_b(indices.size());
  for (size_t i = 0; i < indices.size(); ++i) {
    queries_a[i] = RandomSelectionBits(n, rng);
    queries_b[i] = queries_a[i];
    FlipSelectionBit(&queries_b[i], indices[i]);
    server_a->ObserveQuery(queries_a[i]);
    server_b->ObserveQuery(queries_b[i]);
  }

  // Parallel stage: pure answer computation into positional slots. A slot
  // failure (a replica refusing or diverging mid-batch) lands in its own
  // Status slot — never a process abort inside the ParallelFor region —
  // and the first failure in index order becomes the batch's typed error
  // after the join.
  std::vector<std::vector<uint8_t>> answers(indices.size());
  std::vector<Status> slot_status(indices.size());
  const XorPirServer* a = server_a;
  const XorPirServer* b = server_b;
  auto answer_one = [a, b, &queries_a, &queries_b, &answers,
                     &slot_status](size_t i) {
    auto answer_a = a->ComputeAnswer(queries_a[i]);
    if (!answer_a.ok()) {
      slot_status[i] = answer_a.status();
      return;
    }
    auto answer_b = b->ComputeAnswer(queries_b[i]);
    if (!answer_b.ok()) {
      slot_status[i] = answer_b.status();
      return;
    }
    if (answer_a->size() != answer_b->size()) {
      slot_status[i] = Status::Internal("replica answers diverged in length");
      return;
    }
    XorBytesInto(answer_a->data(), answer_b->data(), answer_a->size());
    answers[i] = std::move(answer_a).value();
  };
  if (pool == nullptr || pool->num_threads() <= 1 || indices.size() <= 1) {
    for (size_t i = 0; i < indices.size(); ++i) answer_one(i);
  } else {
    pool->ParallelFor(indices.size(),
                      [&answer_one](size_t, size_t begin, size_t end) {
                        for (size_t i = begin; i < end; ++i) answer_one(i);
                      });
  }
  for (size_t i = 0; i < indices.size(); ++i) {
    if (!slot_status[i].ok()) {
      return Status(slot_status[i].code(),
                    "PIR batch slot " + std::to_string(i) +
                        " failed: " + slot_status[i].message());
    }
  }
  if (stats != nullptr) {
    stats->upload_bits += indices.size() * 2 * n;
    stats->download_bits += indices.size() * 2 * 8 * server_a->record_size();
  }
  return answers;
}

Result<std::vector<uint8_t>> FourServerCubePirRead(
    const std::array<XorPirServer*, 4>& servers, size_t index, Rng* rng,
    PirStats* stats) {
  TRIPRIV_CHECK(rng != nullptr);
  for (auto* s : servers) TRIPRIV_CHECK(s != nullptr);
  const size_t n = servers[0]->num_records();
  for (auto* s : servers) {
    if (s->num_records() != n || s->record_size() != servers[0]->record_size()) {
      return Status::InvalidArgument("servers must hold identical replicas");
    }
  }
  if (index >= n) return Status::OutOfRange("record index out of range");

  // Grid dimensions: rows x cols >= n.
  const size_t cols = static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  const size_t rows = (n + cols - 1) / cols;
  const size_t target_row = index / cols;
  const size_t target_col = index % cols;

  std::vector<uint8_t> row_sel = RandomSelectionBits(rows, rng);
  std::vector<uint8_t> col_sel = RandomSelectionBits(cols, rng);
  std::vector<uint8_t> row_sel_flipped = row_sel;
  FlipSelectionBit(&row_sel_flipped, target_row);

  // Server s in {0..3} gets (row_sel [xor {i1} if s&1], col_sel [xor {i2}
  // if s&2]) and answers the XOR of all records in the selected submatrix.
  // Expanding the product selection into a flat per-record bitmap keeps the
  // XorPirServer interface uniform; upload accounting uses the compact
  // per-axis size the real protocol would ship. The four flat bitmaps
  // differ only along the target row/column stripe, so server 0's O(n)
  // expansion is built once and the other three are derived by O(sqrt n)
  // stripe flips:
  //   flat1 = flat0 ^ {row target_row restricted to col_sel}
  //   flat2 = flat0 ^ {col target_col restricted to row_sel}
  //   flat3 = flat1 ^ {col target_col restricted to row_sel_flipped}
  std::vector<uint8_t> flat0((n + 7) / 8, 0);
  for (size_t i = 0; i < n; ++i) {
    if (GetBit(row_sel, i / cols) && GetBit(col_sel, i % cols)) {
      FlipSelectionBit(&flat0, i);
    }
  }
  std::vector<uint8_t> flat1 = flat0;
  for (size_t c = 0; c < cols; ++c) {
    if (GetBit(col_sel, c)) FlipGridCell(&flat1, target_row, c, cols, n);
  }
  std::vector<uint8_t> flat2 = flat0;
  for (size_t r = 0; r < rows; ++r) {
    if (GetBit(row_sel, r)) FlipGridCell(&flat2, r, target_col, cols, n);
  }
  std::vector<uint8_t> flat3 = flat1;
  for (size_t r = 0; r < rows; ++r) {
    if (GetBit(row_sel_flipped, r)) FlipGridCell(&flat3, r, target_col, cols, n);
  }

  const std::array<const std::vector<uint8_t>*, 4> flats{&flat0, &flat1,
                                                         &flat2, &flat3};
  std::vector<uint8_t> acc(servers[0]->record_size(), 0);
  for (size_t s = 0; s < 4; ++s) {
    TRIPRIV_ASSIGN_OR_RETURN(auto answer, servers[s]->Answer(*flats[s]));
    XorBytesInto(acc.data(), answer.data(), acc.size());
  }
  if (stats != nullptr) {
    // Accumulate, never overwrite — see the PirStats contract in it_pir.h.
    stats->upload_bits += 4 * (rows + cols);
    stats->download_bits += 4 * 8 * servers[0]->record_size();
  }
  return acc;
}

}  // namespace tripriv
