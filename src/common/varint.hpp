// LEB128 varints and zigzag delta sequence coding — the byte-level layer
// under the compact profile records (profile/compact.hpp) and the frozen
// tracker sets (common/hybrid_set.hpp).
//
// The sequence codec is lossless for ARBITRARY u64 sequences: consecutive
// differences are taken mod 2^64 and zigzag-mapped, so ascending runs cost
// ~1 byte per element (item ids are dense and mostly ascending), while
// non-ascending and duplicate-adjacent inputs still round-trip exactly.
// Decoding adds the differences back mod 2^64 — no overflow UB anywhere
// (all arithmetic is unsigned).
#pragma once

#include <cstddef>
#include <cstdint>

namespace whatsup {

// Encoded size of one LEB128 varint.
inline std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

// Appends one varint to any byte sink with push_back(uint8_t).
template <typename Sink>
inline void varint_append(Sink& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

// Reads one varint, advancing `p`. The caller guarantees the buffer holds a
// complete encoding (these blocks are produced and consumed in-process).
inline std::uint64_t varint_read(const std::uint8_t*& p) {
  std::uint64_t v = 0;
  unsigned shift = 0;
  while (true) {
    const std::uint8_t b = *p++;
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

// Zigzag: small-magnitude signed values (either sign) become small unsigned
// varints. Pure bit mappings — inverse of each other for all 2^64 inputs.
inline std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

// The sequence codec reads and writes any integer element type through a
// u64 lane: signed values sign-extend (a negative int32 Cycle codes exactly
// as its int64 value), unsigned ones zero-extend, and decoding narrows the
// running sum back. No wide staging copy is needed on either side.
template <typename T>
inline std::uint64_t delta_lane(T value) {
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(value));
}

// Encoded size of `values[0..n)` as zigzag'd consecutive deltas (the first
// delta is against 0).
template <typename T>
inline std::size_t delta_encoded_size(const T* values, std::size_t n) {
  std::size_t bytes = 0;
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t v = delta_lane(values[i]);
    bytes += varint_size(zigzag_encode(static_cast<std::int64_t>(v - prev)));
    prev = v;
  }
  return bytes;
}

template <typename Sink, typename T>
inline void delta_encode(Sink& out, const T* values, std::size_t n) {
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t v = delta_lane(values[i]);
    varint_append(out, zigzag_encode(static_cast<std::int64_t>(v - prev)));
    prev = v;
  }
}

template <typename T>
inline void delta_decode(const std::uint8_t*& p, T* out, std::size_t n) {
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    prev += static_cast<std::uint64_t>(zigzag_decode(varint_read(p)));
    out[i] = static_cast<T>(static_cast<std::int64_t>(prev));
  }
}

}  // namespace whatsup
