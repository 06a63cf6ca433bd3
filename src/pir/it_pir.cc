#include "pir/it_pir.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "pir/xor_kernel.h"
#include "util/thread_pool.h"

namespace tripriv {
namespace {

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

/// Words of one sweep tile: 256 bytes of running XOR held locally.
constexpr size_t kTileWords = 32;

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
  // An empty database or first record is refused by the in-place form.
  if (!records.empty() && !records[0].empty()) {
    for (const auto& r : records) {
      if (r.size() != records[0].size()) {
        return Status::InvalidArgument("records must have equal length");
      }
    }
  }
  return Create(records.size(), records.empty() ? 0 : records[0].size(),
                [&records](size_t i, uint8_t* out) {
                  std::copy(records[i].begin(), records[i].end(), out);
                });
}

Result<XorPirServer> XorPirServer::Create(
    size_t num_records, size_t record_size,
    const std::function<void(size_t i, uint8_t* out)>& write) {
  if (num_records == 0) return Status::InvalidArgument("empty database");
  if (record_size == 0) {
    return Status::InvalidArgument("records must be non-empty");
  }
  // The layout's size must not wrap: a wrapped size would under-allocate.
  const size_t stride = (record_size + 7) / 8 * 8;
  if (stride < record_size || num_records > SIZE_MAX / stride) {
    return Status::InvalidArgument("database too large");
  }
  XorPirServer server;
  server.num_records_ = num_records;
  server.record_size_ = record_size;
  server.stride_ = stride;
  server.dense_ = AlignedWordBuffer(num_records * stride / 8);
  uint8_t* out = server.dense_.bytes();
  for (size_t i = 0; i < num_records; ++i, out += server.stride_) {
    write(i, out);
  }
  return server;
}

std::vector<uint8_t> XorPirServer::record(size_t i) const {
  TRIPRIV_CHECK_LT(i, num_records_);
  const uint8_t* begin = dense_.bytes() + i * stride_;
  return std::vector<uint8_t>(begin, begin + record_size_);
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

void XorPirServer::AccumulateRange(const std::vector<uint8_t>& selection,
                                   size_t begin, size_t end,
                                   uint8_t* acc) const {
  // The stride padding is zero, so a tile XORs whole words and only the
  // record's own bytes are written back.
  const size_t stride_words = stride_ / 8;
  for (size_t first = 0; first < stride_words; first += kTileWords) {
    const size_t width = std::min(kTileWords, stride_words - first);
    const uint64_t* words = dense_.data() + first;
    uint64_t tile[kTileWords] = {};
    ForEachSelected(selection, begin, end, [&](size_t i) {
      const uint64_t* record = words + i * stride_words;
      for (size_t w = 0; w < width; ++w) tile[w] ^= record[w];
    });
    XorBytesInto(acc + 8 * first, reinterpret_cast<const uint8_t*>(tile),
                 std::min(8 * width, record_size_ - 8 * first));
  }
}

Result<std::vector<uint8_t>> XorPirServer::ComputeAnswer(
    const std::vector<uint8_t>& selection, ThreadPool* pool) const {
  if (!compute_fault_.ok()) return compute_fault_;
  if (selection.size() != (num_records_ + 7) / 8) {
    return Status::InvalidArgument("selection bitmap has wrong length");
  }
  const size_t size = record_size();
  std::vector<uint8_t> acc(size, 0);
  const size_t shards = pool == nullptr ? 1 : pool->NumShards(num_records_);
  if (shards <= 1 || num_records_ * size < kMinParallelAnswerBytes) {
    AccumulateRange(selection, 0, num_records_, acc.data());
    return acc;
  }
  // Per-shard partial accumulators, XOR-merged in shard order below. XOR is
  // commutative, so the bytes cannot depend on the merge order anyway — the
  // fixed order keeps the parallel path structurally identical to the
  // serial one.
  std::vector<std::vector<uint8_t>> partial(shards,
                                            std::vector<uint8_t>(size, 0));
  pool->ParallelFor(num_records_,
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

}  // namespace tripriv
