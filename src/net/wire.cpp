#include "net/wire.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <utility>

#include "obs/registry.hpp"
#include "profile/compact.hpp"

namespace whatsup::net {

namespace {

void put_u32le(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t get_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

// Descriptor snapshot tags (see the descriptor layout below).
constexpr std::uint8_t kNoSnapshot = 0;
constexpr std::uint8_t kEmptySnapshot = 1;
constexpr std::uint8_t kFullSnapshot = 2;
constexpr std::uint8_t kSnapshotRef = 3;

// News item-profile tags (see the news layout below).
constexpr std::uint8_t kNoItem = 0;
constexpr std::uint8_t kFullItem = 1;
constexpr std::uint8_t kItemRef = 2;

// Link-table sizing: a power of two of at least kSnapshotSlotsPerNode
// slots per node, clamped (see snapshot_table_slots). Every slot pins one
// receiver-side record, so the table trades resident bytes for hit rate;
// docs/perf.md "Link snapshot tables" has the sweep behind 8 slots/node.
constexpr std::size_t kSnapshotSlotsPerNode = 8;
constexpr std::size_t kMinSnapshotSlots = 1024;
constexpr std::size_t kMaxSnapshotSlots = std::size_t{1} << 20;

// Sender-side link-table work counters, registered on first use.
struct WireCounters {
  obs::MetricId snapshot_full = obs::counter("wire.snapshot.full");
  obs::MetricId snapshot_ref = obs::counter("wire.snapshot.ref");
  obs::MetricId item_full = obs::counter("wire.item.full");
  obs::MetricId item_ref = obs::counter("wire.item.ref");
};

const WireCounters& wire_counters() {
  static const WireCounters counters;
  return counters;
}

}  // namespace

// ---- Record bodies ----
//
// Layout: varint count (>= 1), u8 flags, varint byte length, then the
// record's encoded bytes (profile/compact.hpp) verbatim.

void encode_record_body(std::vector<std::uint8_t>& out, const CompactProfile& record) {
  const RecordImage image = record.image();
  wire_varint(out, image.count);
  wire_u8(out, image.flags);
  wire_varint(out, image.bytes.size());
  out.insert(out.end(), image.bytes.begin(), image.bytes.end());
}

bool decode_record_body(WireReader& r, RecordImage& out) {
  const std::uint64_t count = r.read_varint();
  const std::uint8_t flags = r.read_u8();
  const std::uint64_t length = r.read_varint();
  // The count cap and the length check come before the bytes are viewed.
  if (!r.ok() || count > kMaxWireProfileEntries || length > r.remaining()) return false;
  const std::span<const std::uint8_t> bytes = r.read_bytes(static_cast<std::size_t>(length));
  return r.ok() && CompactProfile::parse_image(count, flags, bytes, out);
}

// ---- Link snapshot tables ----

std::size_t snapshot_table_slots(std::size_t nodes) {
  return std::clamp<std::size_t>(std::bit_ceil(kSnapshotSlotsPerNode * nodes),
                                 kMinSnapshotSlots, kMaxSnapshotSlots);
}

SnapshotSendTable::Placement SnapshotSendTable::place(ArenaIndex index,
                                                      std::uint64_t version) {
  assert(std::has_single_bit(slots()));
  const std::size_t ways = std::min(kWays, slots());
  const std::size_t first = (index & (slots() / ways - 1)) * ways;
  Placement p{first, false};
  for (std::size_t s = first; s < first + ways; ++s) {
    if (versions_[s] == version) {
      p = Placement{s, true};
      break;
    }
    if (last_use_[s] < last_use_[p.slot]) p.slot = s;
  }
  if (!p.shipped) versions_[p.slot] = version;
  last_use_[p.slot] = ++clock_;
  return p;
}

SnapshotSendTable::Placement SnapshotSendTable::place_item(const ProfileHandle& item) {
  // Fibonacci hashing of the arena index onto the 64 item slots.
  static_assert(kItemSlots == 64);
  std::uint32_t& candidate = item_slots_[(item.slot() * 0x9E3779B1u) >> 26];
  if (candidate < items_.size() && items_[candidate] == item) {
    return Placement{candidate, true};
  }
  candidate = static_cast<std::uint32_t>(items_.size());
  items_.push_back(item);
  return Placement{candidate, false};
}

bool SnapshotRecvTable::holds(std::uint64_t slot, std::uint64_t version) const {
  // A vacant slot holds version 0, which no reference carries.
  return slot < slots() && version != 0 && versions_[slot] == version;
}

void SnapshotRecvTable::store(std::size_t slot, std::uint64_t version,
                              ProfileHandle handle) {
  versions_[slot] = version;
  handles_[slot] = std::move(handle);
  stamps_[slot] = DescriptorRef();
}

DescriptorRef SnapshotRecvTable::stamp(std::size_t slot, Cycle timestamp) {
  DescriptorRef& last = stamps_[slot];
  if (last.is_null() || last.timestamp() != timestamp) {
    last = DescriptorRef::make(timestamp, handles_[slot]);
  }
  return last;
}

// ---- Descriptor ----
//
// Layout: varint node, zigzag timestamp, tag u8, then per tag:
//   kNoSnapshot      — nothing (bootstrap descriptor: address only);
//   kEmptySnapshot   — nothing (an explicitly empty snapshot);
//   kFullSnapshot    — varint slot, varint version, record body;
//   kSnapshotRef     — varint slot, varint version.

void encode_descriptor(std::vector<std::uint8_t>& out, const Descriptor& d,
                       SnapshotSendTable& link) {
  wire_varint(out, d.node);
  wire_zigzag(out, d.timestamp());
  if (!d.has_profile()) {
    wire_u8(out, kNoSnapshot);
    return;
  }
  if (d.profile_size() == 0) {
    wire_u8(out, kEmptySnapshot);
    return;
  }
  const CompactProfile* blob = d.snapshot();
  const std::uint64_t version = blob->version();
  const SnapshotSendTable::Placement p = link.place(blob->slot(), version);
  wire_u8(out, p.shipped ? kSnapshotRef : kFullSnapshot);
  wire_varint(out, p.slot);
  wire_varint(out, version);
  if (p.shipped) {
    obs::add(wire_counters().snapshot_ref);
    return;
  }
  obs::add(wire_counters().snapshot_full);
  encode_record_body(out, *blob);
}

bool decode_descriptor(WireReader& r, Descriptor& out, SnapshotRecvTable& link) {
  const std::uint64_t node = r.read_varint();
  const std::int64_t timestamp = r.read_zigzag();
  const std::uint8_t tag = r.read_u8();
  if (!r.ok() || node > UINT32_MAX || timestamp < INT32_MIN ||
      timestamp > INT32_MAX || tag > kSnapshotRef) {
    return false;
  }
  const NodeId n = static_cast<NodeId>(node);
  const Cycle ts = static_cast<Cycle>(timestamp);
  if (tag == kNoSnapshot) {
    out = Descriptor{n, ts, nullptr};
    return true;
  }
  if (tag == kEmptySnapshot) {
    out = Descriptor{n, ts, empty_profile_handle()};
    return true;
  }
  const std::uint64_t slot = r.read_varint();
  const std::uint64_t version = r.read_varint();
  if (!r.ok()) return false;
  if (tag == kSnapshotRef) {
    if (!link.holds(slot, version)) return false;
  } else {
    if (slot >= link.slots() || version == 0) return false;
    RecordImage image;
    if (!decode_record_body(r, image)) return false;
    // Re-intern locally BY CONTENT, never by the sender's process-local
    // version stamp (that only keys the link table): identical snapshot
    // bytes arriving through different links collapse onto one record.
    link.store(static_cast<std::size_t>(slot), version,
               SnapshotArena::instance().intern_image(image));
  }
  out = Descriptor{n, link.stamp(static_cast<std::size_t>(slot), ts)};
  return true;
}

// ---- Payloads ----

namespace {

void encode_view_payload(std::vector<std::uint8_t>& out, const ViewPayload& v,
                         SnapshotSendTable& link) {
  encode_descriptor(out, v.sender, link);
  wire_varint(out, v.view.size());
  for (const Descriptor& d : v.view) encode_descriptor(out, d, link);
}

bool decode_view_payload(WireReader& r, ViewPayload& out, SnapshotRecvTable& link) {
  if (!decode_descriptor(r, out.sender, link)) return false;
  const std::uint64_t count = r.read_varint();
  if (!r.ok() || count > kMaxWireViewEntries) return false;
  out.view.resize(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!decode_descriptor(r, out.view[i], link)) return false;
  }
  return true;
}

// News layout: varint id, varint index, zigzag created, varint origin,
// zigzag dislikes, zigzag hops, u8 via_dislike, then the item profile's
// tag u8 and per tag:
//   kNoItem    — nothing (null: the empty item profile);
//   kFullItem  — record body; takes the batch's next item ordinal;
//   kItemRef   — varint ordinal of an earlier full ship in this batch.

void encode_news_payload(std::vector<std::uint8_t>& out, const NewsPayload& n,
                         SnapshotSendTable& link) {
  wire_varint(out, n.id);
  wire_varint(out, n.index);
  wire_zigzag(out, n.created);
  wire_varint(out, n.origin);
  wire_zigzag(out, n.dislikes);
  wire_zigzag(out, n.hops);
  wire_u8(out, n.via_dislike ? 1 : 0);
  if (n.item_profile == nullptr) {
    wire_u8(out, kNoItem);
    return;
  }
  const SnapshotSendTable::Placement p = link.place_item(n.item_profile);
  if (p.shipped) {
    obs::add(wire_counters().item_ref);
    wire_u8(out, kItemRef);
    wire_varint(out, p.slot);
    return;
  }
  obs::add(wire_counters().item_full);
  wire_u8(out, kFullItem);
  encode_record_body(out, *n.item_profile.record());
}

bool decode_news_payload(WireReader& r, NewsPayload& out, SnapshotRecvTable& link) {
  out.id = r.read_varint();
  const std::uint64_t index = r.read_varint();
  const std::int64_t created = r.read_zigzag();
  const std::uint64_t origin = r.read_varint();
  const std::int64_t dislikes = r.read_zigzag();
  const std::int64_t hops = r.read_zigzag();
  const std::uint8_t via = r.read_u8();
  if (!r.ok() || index > UINT32_MAX || created < INT32_MIN ||
      created > INT32_MAX || origin > UINT32_MAX || dislikes < INT8_MIN ||
      dislikes > INT8_MAX || hops < INT16_MIN || hops > INT16_MAX ||
      via > 1) {
    return false;
  }
  out.index = static_cast<ItemIdx>(index);
  out.created = static_cast<Cycle>(created);
  out.origin = static_cast<NodeId>(origin);
  out.dislikes = static_cast<std::int8_t>(dislikes);
  out.hops = static_cast<std::int16_t>(hops);
  out.via_dislike = via != 0;
  const std::uint8_t tag = r.read_u8();
  if (!r.ok()) return false;
  switch (tag) {
    case kNoItem:
      out.item_profile = nullptr;
      return true;
    case kFullItem: {
      RecordImage image;
      if (!decode_record_body(r, image)) return false;
      out.item_profile = item_record(image);
      link.store_item(out.item_profile);
      return true;
    }
    case kItemRef: {
      const ProfileHandle* item = link.resolve_item(r.read_varint());
      if (!r.ok() || item == nullptr) return false;
      out.item_profile = *item;
      return true;
    }
    default:
      return false;
  }
}

void encode_ack_payload(std::vector<std::uint8_t>& out, const AckPayload& a) {
  wire_varint(out, a.item);
  wire_zigzag(out, a.hop);
}

bool decode_ack_payload(WireReader& r, AckPayload& out) {
  out.item = r.read_varint();
  const std::int64_t hop = r.read_zigzag();
  if (!r.ok() || hop < INT32_MIN || hop > INT32_MAX) return false;
  out.hop = static_cast<int>(hop);
  return true;
}

}  // namespace

// ---- Message ----

void encode_message(std::vector<std::uint8_t>& out, const Message& m,
                    SnapshotSendTable& link) {
  wire_varint(out, m.from);
  wire_varint(out, m.to);
  wire_zigzag(out, m.sent_at);
  wire_varint(out, m.seq);
  wire_u8(out, static_cast<std::uint8_t>(m.type));
  wire_u8(out, static_cast<std::uint8_t>(m.payload.index()));
  switch (m.payload.index()) {
    case 0:
      encode_view_payload(out, std::get<ViewPayload>(m.payload), link);
      break;
    case 1:
      encode_news_payload(out, std::get<NewsPayload>(m.payload), link);
      break;
    default:
      encode_ack_payload(out, std::get<AckPayload>(m.payload));
      break;
  }
}

bool decode_message(WireReader& r, Message& out, SnapshotRecvTable& link) {
  const std::uint64_t from = r.read_varint();
  const std::uint64_t to = r.read_varint();
  const std::int64_t sent_at = r.read_zigzag();
  const std::uint64_t seq = r.read_varint();
  const std::uint8_t type = r.read_u8();
  const std::uint8_t payload = r.read_u8();
  if (!r.ok() || from > UINT32_MAX || to > UINT32_MAX ||
      sent_at < INT32_MIN || sent_at > INT32_MAX || seq > UINT16_MAX ||
      type > static_cast<std::uint8_t>(MsgType::kRejoinReply) || payload > 2) {
    return false;
  }
  out.from = static_cast<NodeId>(from);
  out.to = static_cast<NodeId>(to);
  out.sent_at = static_cast<Cycle>(sent_at);
  out.seq = static_cast<std::uint16_t>(seq);
  out.type = static_cast<MsgType>(type);
  switch (payload) {
    case 0: {
      ViewPayload v;
      if (!decode_view_payload(r, v, link)) return false;
      out.payload = std::move(v);
      return true;
    }
    case 1: {
      NewsPayload n;
      if (!decode_news_payload(r, n, link)) return false;
      out.payload = std::move(n);
      return true;
    }
    default: {
      AckPayload a;
      if (!decode_ack_payload(r, a)) return false;
      out.payload = a;
      return true;
    }
  }
}

// ---- Envelope ----

void encode_envelope(std::vector<std::uint8_t>& out, Cycle due,
                     const Message& m, SnapshotSendTable& link) {
  wire_zigzag(out, due);
  encode_message(out, m, link);
}

bool decode_envelope(WireReader& r, Cycle& due, Message& out,
                     SnapshotRecvTable& link) {
  const std::int64_t d = r.read_zigzag();
  if (!r.ok() || d < INT32_MIN || d > INT32_MAX) return false;
  due = static_cast<Cycle>(d);
  return decode_message(r, out, link);
}

// ---- Frames ----

std::uint32_t wire_checksum(std::span<const std::uint8_t> payload) {
  // Eight independent lanes over 32-byte blocks, each stepping
  // h = (h ^ word) * kMul. Xor with a word and multiplication by an odd
  // constant are both bijections mod 2^32, so a change to any one word
  // (every single-byte flip) changes its lane's final value; the lanes and
  // then the tail bytes fold in through the same bijective step, so the
  // change survives to the result.
  constexpr std::uint32_t kMul = 0x9E3779B1u;
  std::uint32_t lanes[8] = {};
  const std::uint8_t* p = payload.data();
  std::size_t n = payload.size();
  for (; n >= sizeof(lanes); p += sizeof(lanes), n -= sizeof(lanes)) {
    for (std::size_t j = 0; j < 8; ++j) {
      lanes[j] = (lanes[j] ^ get_u32le(p + 4 * j)) * kMul;
    }
  }
  std::uint32_t h = 2166136261u;
  for (const std::uint32_t lane : lanes) h = (h ^ lane) * kMul;
  for (; n > 0; ++p, --n) h = (h ^ *p) * kMul;
  return h;
}

FrameHeader frame_header(std::span<const std::uint8_t> payload) {
  FrameHeader header;
  put_u32le(header.data(), static_cast<std::uint32_t>(payload.size()));
  put_u32le(header.data() + 4, wire_checksum(payload));
  return header;
}

bool frame_length(const std::uint8_t* header, std::size_t& length) {
  length = get_u32le(header);
  return length <= kMaxFrameBytes;
}

bool frame_intact(const std::uint8_t* header, std::span<const std::uint8_t> payload) {
  return wire_checksum(payload) == get_u32le(header + 4);
}

void frame_append(std::vector<std::uint8_t>& out,
                  std::span<const std::uint8_t> payload) {
  const FrameHeader header = frame_header(payload);
  out.insert(out.end(), header.begin(), header.end());
  out.insert(out.end(), payload.begin(), payload.end());
}

FrameStatus frame_extract(const std::uint8_t* buffer, std::size_t size,
                          std::size_t& offset,
                          std::span<const std::uint8_t>& payload) {
  if (size - offset < kFrameHeaderBytes) return FrameStatus::kNeedMore;
  const std::uint8_t* header = buffer + offset;
  std::size_t length = 0;
  if (!frame_length(header, length)) return FrameStatus::kCorrupt;
  if (size - offset - kFrameHeaderBytes < length) return FrameStatus::kNeedMore;
  const std::span<const std::uint8_t> body{header + kFrameHeaderBytes, length};
  if (!frame_intact(header, body)) return FrameStatus::kCorrupt;
  payload = body;
  offset += kFrameHeaderBytes + length;
  return FrameStatus::kOk;
}

}  // namespace whatsup::net
