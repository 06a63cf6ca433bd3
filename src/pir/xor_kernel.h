// Word-wide XOR of two byte ranges, for the PIR answer path.
//
// The sweep accumulates selected records in a local word tile
// (XorPirServer::AccumulateRange); this kernel XORs that tile into the
// answer, per-shard partials into each other, and replica answers into a
// reconstruction. Doing it one byte at a time leaves ~8x of the bandwidth
// on the table, so it processes one 32-byte block (4 x uint64_t) per
// iteration, then a word tail, then a byte tail. memcpy is the alias-safe
// way to do unaligned word loads and compiles to plain MOVs; byte order
// never leaks into results because XOR is bytewise.

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace tripriv {

/// dst[0..n) ^= src[0..n). The ranges must not partially overlap.
inline void XorBytesInto(uint8_t* dst, const uint8_t* src, size_t n) {
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    uint64_t d[4];
    uint64_t s[4];
    std::memcpy(d, dst + i, 32);
    std::memcpy(s, src + i, 32);
    d[0] ^= s[0];
    d[1] ^= s[1];
    d[2] ^= s[2];
    d[3] ^= s[3];
    std::memcpy(dst + i, d, 32);
  }
  for (; i + 8 <= n; i += 8) {
    uint64_t d;
    uint64_t s;
    std::memcpy(&d, dst + i, 8);
    std::memcpy(&s, src + i, 8);
    d ^= s;
    std::memcpy(dst + i, &d, 8);
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

}  // namespace tripriv
