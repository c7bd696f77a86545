// Wire serialization of net::Message envelopes — the byte format the
// fragment-partitioned engine ships across worker processes at cycle
// barriers (sim/transport.hpp).
//
// In memory, profiles and item profiles travel as arena handles
// (profile/compact.hpp), meaningless outside the owning process. The codec here serializes CONTENTS, never process-local
// identities:
//
//  * profile snapshots ship as delta-coded entry triplets (the same LEB128
//    zigzag layout CompactProfile uses: id deltas, timestamp deltas, and a
//    1-bit-per-entry mask for binary score vectors, raw doubles otherwise);
//    the receiver re-interns them by content into its own arena.
//  * a descriptor's snapshot crosses each directed fragment link in full
//    only once per profile generation. Both ends of the link keep a
//    mirrored snapshot table (SnapshotSendTable / SnapshotRecvTable): the
//    sender's blob arena index picks a set of slots, the blob's version
//    stamp is the key. A first crossing ships (slot, version, contents); the
//    receiver interns the contents and keeps (version, handle) in the
//    slot. Every later crossing ships (slot, version) alone and resolves
//    to that handle — the very record a full ship would have interned. The
//    sender's version stamps therefore DO ship, but only as table keys:
//    they never enter the receiver's Profile or arena, which keep their own
//    local stamps. Versions only affect cache hit rates and table hits,
//    never behavior, which is what keeps fixed-seed trajectories
//    bit-identical across partition counts.
//  * bootstrap (snapshot-less) and empty-snapshot descriptors, and news
//    item profiles, carry no table traffic: they encode inline.
//  * every numeric field is a varint / zigzag varint; doubles are 8-byte
//    little-endian bit patterns (exact round-trip — scores feed similarity
//    kernels whose last-ulp behavior is pinned by the determinism suite).
//
// Unlike common/varint.hpp's trusted in-process reader, WireReader is
// bounds-checked: truncated or corrupt input parks the reader in a failed
// state instead of reading past the buffer, and every decoder returns
// false rather than fabricating a message. A reference to a slot out of
// range, to a vacant slot or under a version the slot does not hold is
// corrupt input like any other.
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
#include "profile/compact.hpp"
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

// Profile CONTENTS (ids/timestamps/scores). Decoding fills the arrays in
// one pass and stamps one fresh local version; cached norm and liked count
// are bit-equal to the source's (same entries, same left-to-right order).
void encode_profile(std::vector<std::uint8_t>& out, const Profile& profile);
bool decode_profile(WireReader& r, Profile& out);

// ---- Link snapshot tables ----
//
// One SnapshotSendTable per directed link at the sender and its mirror, a
// SnapshotRecvTable, at the receiver; both are built with the same slot
// count and fed the same envelope stream in the same order (the engine's
// barrier exchange guarantees both). The sender alone decides which slot a
// snapshot occupies and names it on the wire, so the receiver needs no
// placement policy of its own. Not thread-safe: the engine encodes and
// decodes on its main thread only. The telemetry counters
// `wire.snapshot.full` and `wire.snapshot.ref` count the sender's
// decisions while obs::enabled().

// Slots per table for a deployment of `nodes` nodes: a power of two and a
// pure function of the node count, so every fragment derives the same N.
std::size_t snapshot_table_slots(std::size_t nodes);

class SnapshotSendTable {
 public:
  SnapshotSendTable() = default;
  explicit SnapshotSendTable(std::size_t slots)
      : versions_(slots, 0), last_use_(slots, 0) {}
  std::size_t slots() const { return versions_.size(); }
  std::size_t resident_bytes() const {
    return versions_.capacity() * sizeof(std::uint64_t) +
           last_use_.capacity() * sizeof(std::uint32_t);
  }

  // Where the blob at arena `index` with `version` goes, and whether that
  // version already crossed the link (then a reference suffices). The
  // blob's set is its index mod (slots / kWays); on a miss the set's least
  // recently shipped way is handed to it.
  struct Placement {
    std::size_t slot = 0;
    bool shipped = false;
  };
  Placement place(ArenaIndex index, std::uint64_t version);

  static constexpr std::size_t kWays = 16;

 private:
  // Version last shipped per slot; 0 = vacant (non-empty profiles never
  // carry version 0).
  std::vector<std::uint64_t> versions_;
  // LRU stamps (0 = vacant). A wrapped clock could only misjudge an
  // eviction, never a reference: correctness rests on versions_ alone.
  std::vector<std::uint32_t> last_use_;
  std::uint32_t clock_ = 0;
};

class SnapshotRecvTable {
 public:
  SnapshotRecvTable() = default;
  explicit SnapshotRecvTable(std::size_t slots)
      : versions_(slots, 0), handles_(slots) {}
  std::size_t slots() const { return versions_.size(); }
  std::size_t resident_bytes() const {
    return versions_.capacity() * sizeof(std::uint64_t) +
           handles_.capacity() * sizeof(ProfileHandle);
  }

  // The record a reference (slot, version) names; nullptr when the slot is
  // out of range, vacant or holds another version.
  const ProfileHandle* resolve(std::uint64_t slot, std::uint64_t version) const;
  // Records a full ship (slot < slots(), version != 0).
  void store(std::size_t slot, std::uint64_t version, ProfileHandle handle);

 private:
  std::vector<std::uint64_t> versions_;  // sender's version; 0 = vacant
  std::vector<ProfileHandle> handles_;   // the local record it resolves to
};

void encode_descriptor(std::vector<std::uint8_t>& out, const Descriptor& d,
                       SnapshotSendTable& link);
bool decode_descriptor(WireReader& r, Descriptor& out, SnapshotRecvTable& link);

void encode_message(std::vector<std::uint8_t>& out, const Message& m,
                    SnapshotSendTable& link);
bool decode_message(WireReader& r, Message& out, SnapshotRecvTable& link);

// One queued envelope as exchanged at cycle barriers: the absolute due
// cycle (network draws happen sender-side; the receiver only buckets) plus
// the message. Batches are plain concatenations of envelopes, decoded
// until the reader is exhausted, through the link's table.
void encode_envelope(std::vector<std::uint8_t>& out, Cycle due, const Message& m,
                     SnapshotSendTable& link);
bool decode_envelope(WireReader& r, Cycle& due, Message& out,
                     SnapshotRecvTable& link);

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
