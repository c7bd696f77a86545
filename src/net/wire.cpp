#include "net/wire.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <utility>

#include "common/small_vector.hpp"
#include "obs/registry.hpp"
#include "profile/compact.hpp"

namespace whatsup::net {

namespace {

std::uint32_t fnv1a32(std::span<const std::uint8_t> bytes) {
  std::uint32_t h = 2166136261u;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 16777619u;
  }
  return h;
}

void put_u32le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint32_t get_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

// Descriptor snapshot tags (see the descriptor layout below).
constexpr std::uint8_t kNoSnapshot = 0;
constexpr std::uint8_t kInlineSnapshot = 1;
constexpr std::uint8_t kFullSnapshot = 2;
constexpr std::uint8_t kSnapshotRef = 3;

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
};

const WireCounters& wire_counters() {
  static const WireCounters counters;
  return counters;
}

bool binary_scores(std::span<const double> scores) {
  for (double s : scores) {
    if (s != 0.0 && s != 1.0) return false;
  }
  return true;
}

}  // namespace

// ---- Profile contents ----
//
// Layout: varint count; then (count > 0): varint id deltas (strictly
// ascending ids, first delta is the first id), zigzag timestamp deltas,
// flags u8, and either a 1-bit-per-entry like mask (kBinaryScores) or
// count raw doubles. Mirrors CompactProfile's record layout so binary
// user profiles cost ~2-3 bytes per entry on the wire.

void encode_profile(std::vector<std::uint8_t>& out, const Profile& profile) {
  const auto ids = profile.ids();
  const auto timestamps = profile.timestamps();
  const auto scores = profile.scores();
  wire_varint(out, ids.size());
  if (ids.empty()) return;
  ItemId prev_id = 0;
  for (ItemId id : ids) {
    wire_varint(out, id - prev_id);
    prev_id = id;
  }
  std::int64_t prev_ts = 0;
  for (Cycle ts : timestamps) {
    wire_zigzag(out, static_cast<std::int64_t>(ts) - prev_ts);
    prev_ts = ts;
  }
  const bool binary = binary_scores(scores);
  wire_u8(out, binary ? 1 : 0);
  if (binary) {
    std::uint8_t bits = 0;
    for (std::size_t i = 0; i < scores.size(); ++i) {
      if (scores[i] == 1.0) bits |= static_cast<std::uint8_t>(1u << (i % 8));
      if (i % 8 == 7) {
        out.push_back(bits);
        bits = 0;
      }
    }
    if (scores.size() % 8 != 0) out.push_back(bits);
  } else {
    for (double s : scores) wire_f64(out, s);
  }
}

bool decode_profile(WireReader& r, Profile& out) {
  out.clear();
  const std::uint64_t count = r.read_varint();
  // Every entry takes at least one byte (its id delta), so a count past the
  // remaining input is corrupt: reject it before sizing any array.
  if (!r.ok() || count > kMaxWireProfileEntries || count > r.remaining()) return false;
  if (count == 0) return r.ok();
  // One pass into flat arrays, loaded with a single version stamp: the
  // ascending-id check below is exactly Profile's sorted invariant.
  SmallVector<ItemId, 16> ids;
  ids.resize(count);
  ItemId prev_id = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t delta = r.read_varint();
    if (!r.ok() || (i > 0 && delta == 0) || delta > ~ItemId{0} - prev_id) {
      return false;  // ids must strictly ascend, without wrapping
    }
    prev_id += delta;
    ids[i] = prev_id;
  }
  SmallVector<Cycle, 16> timestamps;
  timestamps.resize(count);
  std::int64_t prev_ts = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::int64_t delta = r.read_zigzag();
    // |delta| <= 2^33 keeps the running sum far from int64 overflow.
    if (delta < -(std::int64_t{1} << 33) || delta > (std::int64_t{1} << 33)) {
      return false;
    }
    prev_ts += delta;
    if (prev_ts < INT32_MIN || prev_ts > INT32_MAX) return false;
    timestamps[i] = static_cast<Cycle>(prev_ts);
  }
  const std::uint8_t flags = r.read_u8();
  if (!r.ok() || flags > 1) return false;
  SmallVector<double, 16> scores;
  scores.resize(count);
  if (flags == 1) {
    std::uint8_t bits = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      if (i % 8 == 0) bits = r.read_u8();
      scores[i] = (bits >> (i % 8)) & 1 ? 1.0 : 0.0;
    }
  } else {
    for (std::uint64_t i = 0; i < count; ++i) scores[i] = r.read_f64();
  }
  if (!r.ok()) return false;
  out.assign_ascending({ids.data(), ids.size()},
                       {timestamps.data(), timestamps.size()},
                       {scores.data(), scores.size()});
  return true;
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

const ProfileHandle* SnapshotRecvTable::resolve(std::uint64_t slot,
                                                std::uint64_t version) const {
  // A vacant slot holds version 0, which no reference carries.
  if (slot >= slots() || version == 0 || versions_[slot] != version) return nullptr;
  return &handles_[slot];
}

void SnapshotRecvTable::store(std::size_t slot, std::uint64_t version,
                              ProfileHandle handle) {
  versions_[slot] = version;
  handles_[slot] = std::move(handle);
}

// ---- Descriptor ----
//
// Layout: varint node, zigzag timestamp, tag u8, then per tag:
//   kNoSnapshot      — nothing (bootstrap descriptor: address only);
//   kInlineSnapshot  — profile contents (what empty snapshots ship);
//   kFullSnapshot    — varint slot, varint version, profile contents;
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
    wire_u8(out, kInlineSnapshot);
    encode_profile(out, Profile{});
    return;
  }
  const ProfileHandle blob = d.profile();
  const std::uint64_t version = blob.version();
  const SnapshotSendTable::Placement p = link.place(blob.slot(), version);
  wire_u8(out, p.shipped ? kSnapshotRef : kFullSnapshot);
  wire_varint(out, p.slot);
  wire_varint(out, version);
  if (p.shipped) {
    obs::add(wire_counters().snapshot_ref);
    return;
  }
  obs::add(wire_counters().snapshot_full);
  encode_profile(out, blob.decode());
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
  Profile p;
  if (tag == kInlineSnapshot) {
    if (!decode_profile(r, p)) return false;
    out = Descriptor{n, ts, p.empty() ? empty_profile_handle()
                                      : SnapshotArena::instance().intern_by_content(p)};
    return true;
  }
  const std::uint64_t slot = r.read_varint();
  const std::uint64_t version = r.read_varint();
  if (!r.ok()) return false;
  if (tag == kSnapshotRef) {
    const ProfileHandle* handle = link.resolve(slot, version);
    if (handle == nullptr) return false;
    out = Descriptor{n, ts, *handle};
    return true;
  }
  if (slot >= link.slots() || version == 0) return false;
  if (!decode_profile(r, p) || p.empty()) return false;
  // Re-intern locally BY CONTENT, never by the sender's process-local
  // version stamp (that only keys the link table): identical snapshot
  // bytes arriving through different links collapse onto one arena record.
  ProfileHandle handle = SnapshotArena::instance().intern_by_content(p);
  out = Descriptor{n, ts, handle};
  link.store(static_cast<std::size_t>(slot), version, std::move(handle));
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

void encode_news_payload(std::vector<std::uint8_t>& out, const NewsPayload& n) {
  wire_varint(out, n.id);
  wire_varint(out, n.index);
  wire_zigzag(out, n.created);
  wire_varint(out, n.origin);
  wire_zigzag(out, n.dislikes);
  wire_zigzag(out, n.hops);
  wire_u8(out, n.via_dislike ? 1 : 0);
  encode_profile(out, n.item_profile.decode());
}

bool decode_news_payload(WireReader& r, NewsPayload& out) {
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
  Profile p;
  if (!decode_profile(r, p)) return false;
  out.item_profile = item_record(p);
  return true;
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
      encode_news_payload(out, std::get<NewsPayload>(m.payload));
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
      if (!decode_news_payload(r, n)) return false;
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
  return fnv1a32(payload);
}

void frame_append(std::vector<std::uint8_t>& out,
                  std::span<const std::uint8_t> payload) {
  put_u32le(out, static_cast<std::uint32_t>(payload.size()));
  put_u32le(out, fnv1a32(payload));
  out.insert(out.end(), payload.begin(), payload.end());
}

FrameStatus frame_extract(const std::uint8_t* buffer, std::size_t size,
                          std::size_t& offset,
                          std::span<const std::uint8_t>& payload) {
  if (size - offset < 8) return FrameStatus::kNeedMore;
  const std::uint32_t length = get_u32le(buffer + offset);
  const std::uint32_t checksum = get_u32le(buffer + offset + 4);
  if (length > kMaxFrameBytes) return FrameStatus::kCorrupt;
  if (size - offset - 8 < length) return FrameStatus::kNeedMore;
  const std::span<const std::uint8_t> body{buffer + offset + 8, length};
  if (fnv1a32(body) != checksum) return FrameStatus::kCorrupt;
  payload = body;
  offset += 8 + static_cast<std::size_t>(length);
  return FrameStatus::kOk;
}

}  // namespace whatsup::net
