// Wire serialization of net::Message envelopes — the byte format the
// fragment-partitioned engine ships across worker processes at cycle
// barriers (sim/transport.hpp).
//
// Until now messages were in-memory-only structs: profiles travelled as
// interned handles (profile/compact.hpp) and item profiles as CoW
// references, both meaningless outside the owning process. The codec here
// serializes CONTENTS, never process-local identities:
//
//  * profile snapshots ship as delta-coded entry triplets (the same LEB128
//    zigzag layout CompactProfile uses: id deltas, timestamp deltas, and a
//    1-bit-per-entry mask for binary score vectors, raw doubles otherwise);
//    the receiver re-encodes them into its own intern table. Version
//    stamps are deliberately NOT shipped — they are process-local counters
//    and only affect cache hit rates, never behavior, which is what keeps
//    fixed-seed trajectories bit-identical across partition counts.
//  * every numeric field is a varint / zigzag varint; doubles are 8-byte
//    little-endian bit patterns (exact round-trip — scores feed similarity
//    kernels whose last-ulp behavior is pinned by the determinism suite).
//
// Unlike common/varint.hpp's trusted in-process reader, WireReader is
// bounds-checked: truncated or corrupt input parks the reader in a failed
// state instead of reading past the buffer, and every decoder returns
// false rather than fabricating a message.
//
// Framing for the socket transport: [u32 length][u32 FNV-1a checksum]
// [payload], both little-endian. frame_extract rejects oversized lengths
// and checksum mismatches as corrupt.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "common/varint.hpp"
#include "net/message.hpp"
#include "profile/profile.hpp"

namespace whatsup::net {

// ---- Bounds-checked reader ----

class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : p_(data), end_(data + size) {}
  explicit WireReader(std::span<const std::uint8_t> bytes)
      : WireReader(bytes.data(), bytes.size()) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const {
    return ok_ ? static_cast<std::size_t>(end_ - p_) : 0;
  }

  std::uint8_t read_u8() {
    if (p_ == end_) return fail();
    return *p_++;
  }

  std::uint64_t read_varint() {
    std::uint64_t v = 0;
    unsigned shift = 0;
    while (true) {
      if (p_ == end_ || shift > 63) return fail();
      const std::uint8_t b = *p_++;
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
  }

  std::int64_t read_zigzag() { return zigzag_decode(read_varint()); }

  double read_f64() {
    if (static_cast<std::size_t>(end_ - p_) < 8) {
      fail();
      return 0.0;
    }
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<std::uint64_t>(p_[i]) << (8 * i);
    }
    p_ += 8;
    return std::bit_cast<double>(bits);
  }

 private:
  std::uint8_t fail() {
    ok_ = false;
    p_ = end_;
    return 0;
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
  bool ok_ = true;
};

// ---- Writer helpers (append to a byte vector) ----

inline void wire_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}
inline void wire_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  varint_append(out, v);
}
inline void wire_zigzag(std::vector<std::uint8_t>& out, std::int64_t v) {
  varint_append(out, zigzag_encode(v));
}
inline void wire_f64(std::vector<std::uint8_t>& out, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
}

// ---- Payload codecs ----
//
// Decoders validate counts against generous sanity caps (a corrupt length
// must not drive a multi-gigabyte allocation before the checksum or the
// reader catches it).
inline constexpr std::size_t kMaxWireProfileEntries = 1u << 20;
inline constexpr std::size_t kMaxWireViewEntries = 1u << 16;

// Profile CONTENTS (ids/timestamps/scores). The decoded profile carries a
// fresh local version stamp; cached norm and liked count are recomputed
// and bit-equal to the source's (same entries, same left-to-right order).
void encode_profile(std::vector<std::uint8_t>& out, const Profile& profile);
bool decode_profile(WireReader& r, Profile& out);

void encode_descriptor(std::vector<std::uint8_t>& out, const Descriptor& d);
bool decode_descriptor(WireReader& r, Descriptor& out);

void encode_message(std::vector<std::uint8_t>& out, const Message& m);
bool decode_message(WireReader& r, Message& out);

// One queued envelope as exchanged at cycle barriers: the absolute due
// cycle (network draws happen sender-side; the receiver only buckets) plus
// the message. Batches are plain concatenations of envelopes, decoded
// until the reader is exhausted.
void encode_envelope(std::vector<std::uint8_t>& out, Cycle due, const Message& m);
bool decode_envelope(WireReader& r, Cycle& due, Message& out);

// ---- Frames ----

inline constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 30;

std::uint32_t wire_checksum(std::span<const std::uint8_t> payload);

// Appends [length][checksum][payload] to `out`.
void frame_append(std::vector<std::uint8_t>& out,
                  std::span<const std::uint8_t> payload);

enum class FrameStatus { kNeedMore, kOk, kCorrupt };

// Tries to extract one complete frame from buffer[offset..size). On kOk,
// `payload` views the frame's payload bytes (inside `buffer`) and `offset`
// advances past the frame. kNeedMore leaves `offset` untouched; kCorrupt
// means an oversized length or a checksum mismatch (the stream is dead —
// there is no resynchronization).
FrameStatus frame_extract(const std::uint8_t* buffer, std::size_t size,
                          std::size_t& offset,
                          std::span<const std::uint8_t>& payload);

}  // namespace whatsup::net
