// Cache-line-aligned word storage for XorPirServer's dense record layout,
// the one copy of the database each PIR replica holds.
//
// The PIR answer sweep is memory-bandwidth bound: what it streams from
// should start on a 64-byte boundary and be padded to whole cache lines so
// the compiler's vectorized loops never straddle a line and never need a
// scalar prologue. std::vector<uint64_t> only guarantees 8-byte alignment,
// so AlignedWordBuffer over-allocates by seven words and publishes the
// first 64-byte-aligned word as data().
//
// Copying re-derives the alignment offset for the new allocation (the
// padding words are dead space, never part of the logical contents), so a
// copied buffer is aligned too, not a byte-shifted image of the original.

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace tripriv {

/// `words` uint64 slots, zero-initialized, with data() 64-byte aligned.
class AlignedWordBuffer {
 public:
  AlignedWordBuffer() = default;
  explicit AlignedWordBuffer(size_t words) : storage_(words + 7), words_(words) {
    offset_ = AlignOffset();
  }

  AlignedWordBuffer(const AlignedWordBuffer& other)
      : storage_(other.storage_.size()), words_(other.words_) {
    offset_ = AlignOffset();
    if (words_ > 0) {
      std::memcpy(storage_.data() + offset_, other.data(), size_bytes());
    }
  }
  AlignedWordBuffer& operator=(const AlignedWordBuffer& other) {
    if (this != &other) {
      AlignedWordBuffer copy(other);
      *this = std::move(copy);
    }
    return *this;
  }
  // Moves carry the allocation, so the stored offset stays valid.
  AlignedWordBuffer(AlignedWordBuffer&&) noexcept = default;
  AlignedWordBuffer& operator=(AlignedWordBuffer&&) noexcept = default;

  bool empty() const { return words_ == 0; }
  size_t size_words() const { return words_; }
  size_t size_bytes() const { return words_ * sizeof(uint64_t); }

  uint64_t* data() { return storage_.data() + offset_; }
  const uint64_t* data() const { return storage_.data() + offset_; }

  uint8_t* bytes() { return reinterpret_cast<uint8_t*>(data()); }
  const uint8_t* bytes() const {
    return reinterpret_cast<const uint8_t*>(data());
  }

 private:
  /// Words to skip from storage_.data() to the first 64-byte boundary.
  size_t AlignOffset() const {
    if (storage_.empty()) return 0;
    const auto base = reinterpret_cast<uintptr_t>(storage_.data());
    return (64 - base % 64) % 64 / sizeof(uint64_t);
  }

  std::vector<uint64_t> storage_;  ///< words_ + 7, so alignment always fits
  size_t words_ = 0;
  size_t offset_ = 0;
};

}  // namespace tripriv
