// Wire serialization of net::Message envelopes — the byte format the
// fragment-partitioned engine ships across worker processes at cycle
// barriers (sim/transport.hpp).
//
// In memory, profiles and item profiles travel as arena handles
// (profile/compact.hpp), meaningless outside the owning process. The codec
// here serializes CONTENTS, never process-local identities, and the arena
// record is the only form a profile takes on the wire:
//
//  * a record body is `varint count, u8 flags, varint byte length` and
//    then the CompactProfile's encoded bytes verbatim (score mask or raw
//    doubles, zigzag id deltas, zigzag timestamp deltas). The sender copies
//    them out of its record with no decode; the receiver validates them in
//    one pass (CompactProfile::parse_image: canonical bytes only, so equal
//    contents always arrive as equal bytes), derives liked count, norm and
//    oldest timestamp in the same pass, and builds its own record from the
//    bytes. Snapshots go through the arena's content table, keyed by the
//    received bytes: a hit shares the existing record without allocating.
//  * a descriptor's snapshot crosses each directed fragment link in full
//    only once per profile generation. Both ends of the link keep a
//    mirrored snapshot table (SnapshotSendTable / SnapshotRecvTable): the
//    sender's blob arena index picks a set of slots, the blob's version
//    stamp is the key. A first crossing ships (slot, version, body); the
//    receiver interns the body and keeps (version, handle) in the slot.
//    Every later crossing ships (slot, version) alone and resolves to that
//    handle — the very record a full ship would have interned. The
//    sender's version stamps therefore DO ship, but only as table keys:
//    they never enter the receiver's arena, which keeps its own local
//    stamps. Versions only affect cache hit rates and table hits, never
//    behavior, which is what keeps fixed-seed trajectories bit-identical
//    across partition counts.
//  * a news item profile ships its body once per batch: the first news
//    envelope of a batch that carries a given item record ships it in full,
//    later envelopes of the same batch (the fLIKE fan-out of one forward)
//    name it by its ordinal among the batch's full item ships. Both ends
//    forget these ordinals at end_batch(), once per barrier exchange, so no
//    item record stays pinned past the exchange that shipped it.
//  * bootstrap (snapshot-less) and empty-snapshot descriptors, and null
//    item profiles, ship a tag alone.
//  * every other numeric field is a varint / zigzag varint; doubles keep
//    their exact bit patterns (scores feed similarity kernels whose
//    last-ulp behavior is pinned by the determinism suite).
//
// Unlike common/varint.hpp's trusted in-process reader, WireReader is
// bounds-checked: truncated or corrupt input parks the reader in a failed
// state instead of reading past the buffer, and every decoder returns
// false rather than fabricating a message. A reference to a slot out of
// range, to a vacant slot or under a version the slot does not hold, or
// to an item ordinal the batch has not shipped, is corrupt input like any
// other.
//
// Framing for the socket transport: [u32 length][u32 checksum][payload],
// both little-endian. The checksum (wire_checksum) runs eight 32-bit lanes
// a word at a time and still detects every single-byte flip. A frame with
// an oversized length or a checksum mismatch is corrupt.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "common/varint.hpp"
#include "net/message.hpp"
#include "profile/compact.hpp"

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

  // The next `n` bytes, viewed in place (empty and failed past the end).
  std::span<const std::uint8_t> read_bytes(std::size_t n) {
    if (static_cast<std::size_t>(end_ - p_) < n) {
      fail();
      return {};
    }
    const std::span<const std::uint8_t> bytes{p_, n};
    p_ += n;
    return bytes;
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
// ---- Payload codecs ----
//
// Decoders validate counts against generous sanity caps (a corrupt length
// must not drive a multi-gigabyte allocation before the checksum or the
// reader catches it).
inline constexpr std::size_t kMaxWireProfileEntries = 1u << 20;
inline constexpr std::size_t kMaxWireViewEntries = 1u << 16;

// A record body (the layout above). Decoding validates it
// (CompactProfile::parse_image) and leaves `out.bytes` viewing the
// reader's buffer; an empty record has no body.
void encode_record_body(std::vector<std::uint8_t>& out, const CompactProfile& record);
bool decode_record_body(WireReader& r, RecordImage& out);

// ---- Link snapshot tables ----
//
// One SnapshotSendTable per directed link at the sender and its mirror, a
// SnapshotRecvTable, at the receiver; both are built with the same slot
// count and fed the same envelope stream in the same order (the engine's
// barrier exchange guarantees both). The sender alone decides which slot a
// snapshot occupies and names it on the wire, so the receiver needs no
// placement policy of its own. The same pair carries the link's
// batch-local item ordinals, cleared by end_batch() on both ends after
// every batch. Not thread-safe: the engine encodes and decodes on its main
// thread only. The telemetry counters `wire.snapshot.full`,
// `wire.snapshot.ref`, `wire.item.full` and `wire.item.ref` count the
// sender's decisions while obs::enabled().

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
           last_use_.capacity() * sizeof(std::uint32_t) + sizeof(item_slots_) +
           items_.capacity() * sizeof(ProfileHandle);
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

  // The ordinal of item record `item` (non-null) in this batch, as
  // Placement::slot, and whether an earlier envelope of the batch already
  // shipped it (then the ordinal suffices). A first ship takes the next ordinal and pins the
  // record until end_batch(), so its arena index cannot be reused for
  // another record within the batch.
  Placement place_item(const ProfileHandle& item);
  // Forgets the batch's item ordinals (after the batch is exchanged).
  void end_batch() { items_.clear(); }

  static constexpr std::size_t kWays = 16;
  // Direct-mapped item index: a probe with 64 slots found 99.5% of the
  // back-references 1024 slots did on split-500 (docs/perf.md).
  static constexpr std::size_t kItemSlots = 64;

 private:
  // Version last shipped per slot; 0 = vacant (non-empty profiles never
  // carry version 0).
  std::vector<std::uint64_t> versions_;
  // LRU stamps (0 = vacant). A wrapped clock could only misjudge an
  // eviction, never a reference: correctness rests on versions_ alone.
  std::vector<std::uint32_t> last_use_;
  std::uint32_t clock_ = 0;
  // Item records shipped in full this batch, by ordinal, and a candidate
  // ordinal per item slot. A candidate counts only while items_ holds the
  // very record at that ordinal, so stale candidates need no clearing.
  std::array<std::uint32_t, kItemSlots> item_slots_{};
  std::vector<ProfileHandle> items_;
};

class SnapshotRecvTable {
 public:
  SnapshotRecvTable() = default;
  explicit SnapshotRecvTable(std::size_t slots)
      : versions_(slots, 0), handles_(slots), stamps_(slots) {}
  std::size_t slots() const { return versions_.size(); }
  std::size_t resident_bytes() const {
    return versions_.capacity() * sizeof(std::uint64_t) +
           (handles_.capacity() + items_.capacity()) * sizeof(ProfileHandle) +
           stamps_.capacity() * sizeof(DescriptorRef);
  }

  // Whether a reference (slot, version) names a stored record: false when
  // the slot is out of range, vacant or holds another version.
  bool holds(std::uint64_t slot, std::uint64_t version) const;
  // Records a full ship (slot < slots(), version != 0).
  void store(std::size_t slot, std::uint64_t version, ProfileHandle handle);
  // The (timestamp, record) descriptor ref of a decode through `slot`
  // (which holds a record). Copies of one descriptor generation keep
  // crossing the link with the same timestamp, so the slot's last stamp
  // record is shared when the timestamp matches instead of allocating a
  // new one.
  DescriptorRef stamp(std::size_t slot, Cycle timestamp);

  // The item record a back-reference names; nullptr past the batch's
  // full item ships.
  const ProfileHandle* resolve_item(std::uint64_t ordinal) const {
    return ordinal < items_.size() ? &items_[ordinal] : nullptr;
  }
  // Records a full item ship under the next ordinal.
  void store_item(ProfileHandle item) { items_.push_back(std::move(item)); }
  // Forgets the batch's item ordinals (after decoding the batch).
  void end_batch() { items_.clear(); }

 private:
  std::vector<std::uint64_t> versions_;  // sender's version; 0 = vacant
  std::vector<ProfileHandle> handles_;   // the local record it resolves to
  std::vector<DescriptorRef> stamps_;    // last stamp made for the slot
  std::vector<ProfileHandle> items_;     // this batch's full item ships
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
// until the reader is exhausted, through the link's table; each end calls
// its table's end_batch() once the batch is exchanged or decoded.
void encode_envelope(std::vector<std::uint8_t>& out, Cycle due, const Message& m,
                     SnapshotSendTable& link);
bool decode_envelope(WireReader& r, Cycle& due, Message& out,
                     SnapshotRecvTable& link);

// ---- Frames ----

inline constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 30;
inline constexpr std::size_t kFrameHeaderBytes = 8;
using FrameHeader = std::array<std::uint8_t, kFrameHeaderBytes>;

std::uint32_t wire_checksum(std::span<const std::uint8_t> payload);

// [length][checksum] for `payload`; the transport sends it ahead of the
// payload bytes, which stay where they are.
FrameHeader frame_header(std::span<const std::uint8_t> payload);
// The payload length a header announces; false when it is past
// kMaxFrameBytes (a corrupt stream, rejected before waiting for the bytes).
bool frame_length(const std::uint8_t* header, std::size_t& length);
// Whether `payload` (of the announced length) matches the header's
// checksum.
bool frame_intact(const std::uint8_t* header, std::span<const std::uint8_t> payload);

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
