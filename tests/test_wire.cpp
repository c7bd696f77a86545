// Wire-codec contract (net/wire.hpp): every payload kind round-trips
// bit-exactly through the fragment-exchange byte format, snapshot
// references resolve through the mirrored link tables to the record a full
// ship interns, truncated or corrupt input is rejected (never read past
// the buffer, never fabricate a message), and the frame layer detects
// corruption. The socket transport and the distributed-smoke CI job both
// stand on these properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "net/message.hpp"
#include "net/wire.hpp"
#include "obs/registry.hpp"
#include "profile/compact.hpp"
#include "profile/profile.hpp"

namespace whatsup::net {
namespace {

// Both ends of one directed fragment link.
struct Link {
  explicit Link(std::size_t slots = snapshot_table_slots(0))
      : tx(slots), rx(slots) {}
  SnapshotSendTable tx;
  SnapshotRecvTable rx;
};

// Round-trips one descriptor through a fresh link.
Descriptor roundtrip_descriptor(const Descriptor& in) {
  Link link;
  std::vector<std::uint8_t> buf;
  encode_descriptor(buf, in, link.tx);
  WireReader r(buf.data(), buf.size());
  Descriptor out;
  EXPECT_TRUE(decode_descriptor(r, out, link.rx));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  return out;
}

Profile binary_profile() {
  Profile p;
  p.set(3, 5, 1.0);
  p.set(17, 6, 0.0);
  p.set(90000, 7, 1.0);
  p.set(90001, -2, 1.0);  // negative timestamp (pre-warmup relative clock)
  return p;
}

Profile real_profile() {
  Profile p;
  p.set(1, 4, 0.25);
  p.set(2, 4, 1.0);  // mixed: one binary-looking score among reals
  p.set(1000000007ULL, 9, 0.6180339887498949);
  return p;
}

// Nine entries: forces a second bit-mask byte on the binary path.
Profile wide_binary_profile() {
  Profile p;
  for (ItemId id = 0; id < 9; ++id) p.set(id * 7 + 1, static_cast<Cycle>(id), id % 2 ? 1.0 : 0.0);
  return p;
}

// Ids past 2^63: their first zigzag delta is negative as an int64, and
// the record must still carry them ascending.
Profile huge_id_profile() {
  Profile p;
  p.set(~ItemId{0} - 1, 3, 1.0);
  p.set(~ItemId{0}, 4, 0.0);
  return p;
}

Message roundtrip_message(const Message& in);

// A profile through the news path: its item record's body crosses a link
// and the receiver builds a record from the bytes. An empty profile ships
// as the null item record.
Profile roundtrip_profile(const Profile& in) {
  Message m;
  m.type = MsgType::kNews;
  m.from = 1;
  m.to = 2;
  NewsPayload n;
  n.item_profile = item_record(in);
  m.payload = std::move(n);
  return roundtrip_message(m).news().item_profile.decode();
}

TEST(Wire, ProfileRoundTripBinaryRealWideEmpty) {
  EXPECT_EQ(roundtrip_profile(binary_profile()), binary_profile());
  EXPECT_EQ(roundtrip_profile(real_profile()), real_profile());
  EXPECT_EQ(roundtrip_profile(wide_binary_profile()), wide_binary_profile());
  EXPECT_EQ(roundtrip_profile(huge_id_profile()), huge_id_profile());
  EXPECT_EQ(roundtrip_profile(Profile{}), Profile{});
}

TEST(Wire, ProfileScoresRoundTripToTheBit) {
  // Doubles ship as raw bit patterns; the similarity kernels' last-ulp
  // behavior depends on exact equality, not approximate.
  Profile p;
  p.set(1, 0, 0.1);  // not representable exactly in binary
  p.set(2, 0, 1.0 / 3.0);
  const Profile out = roundtrip_profile(p);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.scores()[0], 0.1);
  EXPECT_EQ(out.scores()[1], 1.0 / 3.0);
  // The one-pass decoder rebuilds the derived fields bit-equal too.
  for (const Profile& in : {p, binary_profile(), real_profile(),
                            wide_binary_profile(), huge_id_profile()}) {
    const Profile back = roundtrip_profile(in);
    EXPECT_EQ(back.liked_count(), in.liked_count());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.norm()),
              std::bit_cast<std::uint64_t>(in.norm()));
    EXPECT_NE(back.version(), 0u);
  }
}

TEST(Wire, DescriptorRoundTripNullAndSnapshot) {
  // Bootstrap descriptor: address only, no snapshot.
  {
    const Descriptor out = roundtrip_descriptor(Descriptor{42, -1, ProfileHandle()});
    EXPECT_EQ(out.node, 42u);
    EXPECT_EQ(out.timestamp(), -1);
    EXPECT_FALSE(out.has_profile());
  }
  // Snapshot descriptor: contents round-trip; the receiver re-interns
  // locally (content identity, not the sender's handle).
  {
    const Profile p = binary_profile();
    const Descriptor out = roundtrip_descriptor(make_descriptor(7, 12, p));
    EXPECT_EQ(out.node, 7u);
    EXPECT_EQ(out.timestamp(), 12);
    ASSERT_TRUE(out.has_profile());
    EXPECT_EQ(out.decoded_profile(), p);
  }
  // Empty-but-present snapshot stays distinct from the null handle.
  {
    const Descriptor out = roundtrip_descriptor(make_descriptor(9, 3, Profile{}));
    ASSERT_TRUE(out.has_profile());
    EXPECT_EQ(out.profile_size(), 0u);
  }
}

TEST(Wire, PackedDescriptorCorpusRoundTrip) {
  // The 8-byte packed descriptor (u32 node + u32 DescriptorRef) has three
  // in-memory encodings — null, inline 31-bit timestamp (profile-less),
  // and arena stamp record — and the wire format must be agnostic to which
  // one the sender held: bytes carry (node, timestamp, profile contents),
  // never a stamp-record index. Sweep a corpus across every encoding and
  // both inline-tag boundaries (±2^30).
  static_assert(sizeof(Descriptor) == 8);
  const Profile snap = binary_profile();
  struct Case {
    NodeId node;
    Cycle ts;
    bool with_profile;
  };
  const Case corpus[] = {
      {0, 0, false},
      {1, -1, false},
      {5, kNoCycle, false},          // null ref: {kNoCycle, no snapshot}
      {42, (1 << 30) - 1, false},    // inline max
      {43, -(1 << 30), false},       // inline min
      {44, 1 << 30, false},          // past inline range -> stamp record
      {45, -(1 << 30) - 1, false},   // past inline range, negative
      {46, std::numeric_limits<Cycle>::max(), false},
      {7, 12, true},                 // snapshots always ride a stamp record
      {8, -40000, true},
      {9, (1 << 30) + 5, true},
      {0xFFFFFFFEu, 77, true},
  };
  for (const Case& c : corpus) {
    const Descriptor in =
        c.with_profile ? make_descriptor(c.node, c.ts, snap)
                       : Descriptor{c.node, c.ts, nullptr};
    ASSERT_EQ(in.timestamp(), c.ts);  // packing itself must not clip
    ASSERT_EQ(in.has_profile(), c.with_profile);
    const Descriptor out = roundtrip_descriptor(in);
    EXPECT_EQ(out.node, c.node);
    EXPECT_EQ(out.timestamp(), c.ts);
    EXPECT_EQ(out.has_profile(), c.with_profile);
    if (c.with_profile) {
      EXPECT_EQ(out.decoded_profile(), snap);
    }
  }
}

Message roundtrip_message(const Message& in) {
  Link link;
  std::vector<std::uint8_t> buf;
  encode_message(buf, in, link.tx);
  WireReader r(buf.data(), buf.size());
  Message out;
  EXPECT_TRUE(decode_message(r, out, link.rx));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(out.from, in.from);
  EXPECT_EQ(out.to, in.to);
  EXPECT_EQ(out.sent_at, in.sent_at);
  EXPECT_EQ(out.seq, in.seq);
  EXPECT_EQ(out.type, in.type);
  EXPECT_EQ(out.payload.index(), in.payload.index());
  return out;
}

Message view_message(MsgType type) {
  Message m;
  m.from = 3;
  m.to = 11;
  m.sent_at = 21;
  m.seq = 2;
  m.type = type;
  ViewPayload v;
  v.sender = make_descriptor(3, 21, binary_profile());
  v.view.push_back(Descriptor{8, -1, ProfileHandle()});
  v.view.push_back(make_descriptor(15, 20, real_profile()));
  v.view.push_back(make_descriptor(2, 19, Profile{}));
  m.payload = std::move(v);
  return m;
}

void expect_view_equal(const ViewPayload& a, const ViewPayload& b) {
  EXPECT_EQ(a.sender.node, b.sender.node);
  EXPECT_EQ(a.sender.timestamp(), b.sender.timestamp());
  ASSERT_EQ(a.view.size(), b.view.size());
  for (std::size_t i = 0; i < a.view.size(); ++i) {
    EXPECT_EQ(a.view[i].node, b.view[i].node);
    EXPECT_EQ(a.view[i].timestamp(), b.view[i].timestamp());
    EXPECT_EQ(a.view[i].has_profile(), b.view[i].has_profile());
    if (a.view[i].has_profile()) {
      EXPECT_EQ(a.view[i].decoded_profile(), b.view[i].decoded_profile());
    }
  }
}

// Every gossip message kind — RPS/WUP request/reply and the rejoin
// handshake — carries a ViewPayload; each round-trips with its type tag.
TEST(Wire, ViewMessageRoundTripAllGossipTypes) {
  for (MsgType type : {MsgType::kRpsRequest, MsgType::kRpsReply,
                       MsgType::kWupRequest, MsgType::kWupReply,
                       MsgType::kRejoinRequest, MsgType::kRejoinReply}) {
    const Message in = view_message(type);
    const Message out = roundtrip_message(in);
    expect_view_equal(out.view(), in.view());
  }
}

TEST(Wire, NewsMessageRoundTrip) {
  Message m;
  m.from = 5;
  m.to = 6;
  m.sent_at = 30;
  m.seq = 7;
  m.type = MsgType::kNews;
  NewsPayload n;
  n.id = 0xdeadbeefcafeULL;
  n.index = 12;
  n.created = 28;
  n.origin = 2;
  n.dislikes = 3;
  n.hops = 4;
  n.via_dislike = true;
  n.item_profile = CompactProfile::encode(real_profile());
  m.payload = std::move(n);
  const Message out = roundtrip_message(m);
  const NewsPayload& r = out.news();
  EXPECT_EQ(r.id, 0xdeadbeefcafeULL);
  EXPECT_EQ(r.index, 12u);
  EXPECT_EQ(r.created, 28);
  EXPECT_EQ(r.origin, 2u);
  EXPECT_EQ(r.dislikes, 3);
  EXPECT_EQ(r.hops, 4);
  EXPECT_TRUE(r.via_dislike);
  EXPECT_EQ(r.item_profile.decode(), real_profile());
}

TEST(Wire, NewsMessageRoundTripEmptyItemProfile) {
  // A fresh publication's item profile can be empty; the decoded handle
  // must stay the allocation-free null representation.
  Message m;
  m.type = MsgType::kNews;
  m.from = 1;
  m.to = 2;
  NewsPayload n;
  n.id = 99;
  n.index = 0;
  m.payload = std::move(n);
  const Message out = roundtrip_message(m);
  EXPECT_TRUE(out.news().item_profile == nullptr);
  EXPECT_FALSE(out.news().via_dislike);
}

TEST(Wire, AckMessageRoundTrip) {
  Message m;
  m.from = 9;
  m.to = 4;
  m.sent_at = 15;
  m.seq = 1;
  m.type = MsgType::kAck;
  m.payload = AckPayload{0x123456789ULL, 6};
  const Message out = roundtrip_message(m);
  EXPECT_EQ(out.ack().item, 0x123456789ULL);
  EXPECT_EQ(out.ack().hop, 6);
}

TEST(Wire, EnvelopeRoundTrip) {
  Link link;
  std::vector<std::uint8_t> buf;
  const Message in = view_message(MsgType::kRpsRequest);
  encode_envelope(buf, 37, in, link.tx);
  encode_envelope(buf, 38, in, link.tx);  // batches are plain concatenations
  WireReader r(buf.data(), buf.size());
  Cycle due = 0;
  Message out;
  ASSERT_TRUE(decode_envelope(r, due, out, link.rx));
  EXPECT_EQ(due, 37);
  ASSERT_TRUE(decode_envelope(r, due, out, link.rx));
  EXPECT_EQ(due, 38);
  expect_view_equal(out.view(), in.view());  // the second copy rode references
  EXPECT_EQ(r.remaining(), 0u);
}

// The core safety property: EVERY strict prefix of a valid encoding is
// rejected. The bounded reader parks instead of reading past the end, so
// no truncation can fabricate a message or crash the decoder.
TEST(Wire, TruncatedMessagesAreRejectedAtEveryLength) {
  std::vector<Message> corpus;
  corpus.push_back(view_message(MsgType::kWupReply));
  {
    Message m;
    m.type = MsgType::kNews;
    m.from = 1;
    m.to = 2;
    NewsPayload n;
    n.id = 7;
    n.index = 3;
    n.item_profile = CompactProfile::encode(wide_binary_profile());
    m.payload = std::move(n);
    corpus.push_back(std::move(m));
  }
  {
    Message m;
    m.type = MsgType::kAck;
    m.payload = AckPayload{5, 1};
    corpus.push_back(std::move(m));
  }
  for (const Message& m : corpus) {
    Link link;
    std::vector<std::uint8_t> buf;
    encode_message(buf, m, link.tx);
    for (std::size_t len = 0; len < buf.size(); ++len) {
      WireReader r(buf.data(), len);
      SnapshotRecvTable rx(link.rx.slots());
      Message out;
      EXPECT_FALSE(decode_message(r, out, rx)) << "prefix length " << len;
    }
  }
}

TEST(Wire, CorruptFieldsAreRejected) {
  // Out-of-range message type.
  {
    Link link;
    std::vector<std::uint8_t> buf;
    encode_message(buf, view_message(MsgType::kRpsRequest), link.tx);
    // Header layout: from, to, sent_at, seq (single-byte varints here),
    // then the type byte at offset 4.
    buf[4] = 0xff;
    WireReader r(buf.data(), buf.size());
    Message out;
    EXPECT_FALSE(decode_message(r, out, link.rx));
  }
  // Out-of-range payload index (offset 5).
  {
    Link link;
    std::vector<std::uint8_t> buf;
    encode_message(buf, view_message(MsgType::kRpsRequest), link.tx);
    buf[5] = 3;
    WireReader r(buf.data(), buf.size());
    Message out;
    EXPECT_FALSE(decode_message(r, out, link.rx));
  }
  // An item back-reference to an ordinal the batch has not shipped.
  {
    Link link;
    Message m;
    m.type = MsgType::kNews;
    m.from = 1;
    m.to = 2;
    NewsPayload n;
    n.item_profile = item_record(real_profile());
    m.payload = std::move(n);
    std::vector<std::uint8_t> buf;
    encode_message(buf, m, link.tx);
    std::vector<std::uint8_t> ref;
    encode_message(ref, m, link.tx);  // the second ship is a back-reference
    Message out;
    WireReader cold(ref.data(), ref.size());
    EXPECT_FALSE(decode_message(cold, out, link.rx));
    WireReader r(buf.data(), buf.size());
    ASSERT_TRUE(decode_message(r, out, link.rx));
    WireReader warm(ref.data(), ref.size());
    EXPECT_TRUE(decode_message(warm, out, link.rx));
    ASSERT_GE(ref.size(), 2u);
    ref.back() = 1;  // ordinal 1: only ordinal 0 was shipped
    WireReader past(ref.data(), ref.size());
    EXPECT_FALSE(decode_message(past, out, link.rx));
  }
  // Over-long varint (continuation bits past 64 bits of payload).  // Over-long varint (continuation bits past 64 bits of payload).
  {
    std::vector<std::uint8_t> buf(10, 0xff);
    buf.push_back(0x01);
    WireReader r(buf.data(), buf.size());
    (void)r.read_varint();
    EXPECT_FALSE(r.ok());
  }
}

// A record body around raw record bytes: count, flags, the byte length
// (plus `extra_length`) and the bytes.
std::vector<std::uint8_t> record_body(std::uint64_t count, std::uint8_t flags,
                                      const std::vector<std::uint8_t>& bytes,
                                      std::uint64_t extra_length = 0) {
  std::vector<std::uint8_t> buf;
  wire_varint(buf, count);
  wire_u8(buf, flags);
  wire_varint(buf, bytes.size() + extra_length);
  buf.insert(buf.end(), bytes.begin(), bytes.end());
  return buf;
}

bool decodes(const std::vector<std::uint8_t>& body) {
  WireReader r(body.data(), body.size());
  RecordImage image;
  return decode_record_body(r, image) && r.remaining() == 0;
}

// Raw bytes of the binary record {(5, t=3, like), (6, t=3, dislike)}:
// mask, zigzag id deltas, zigzag timestamp deltas.
std::vector<std::uint8_t> two_entry_bytes() {
  return {0b01, 10, 2, 6, 0};
}

// Every rejection of the record body: the receiver accepts exactly the
// canonical bytes CompactProfile writes, so equal contents are equal bytes.
TEST(Wire, CorruptRecordBodiesAreRejected) {
  ASSERT_TRUE(decodes(record_body(2, 1, two_entry_bytes())));  // the control
  // Duplicate ids (zero delta after the first entry).
  EXPECT_FALSE(decodes(record_body(2, 1, {0b01, 10, 0, 6, 0})));
  // Id deltas that wrap past 2^64: first id 2^64 - 2 (zigzag of -2), then
  // +3 wraps to 1.
  EXPECT_FALSE(decodes(record_body(2, 1, {0b01, 3, 6, 0, 0})));
  EXPECT_TRUE(decodes(record_body(2, 1, {0b01, 3, 2, 0, 0})));  // +1: 2^64 - 1
  // A negative id delta after the first entry.
  EXPECT_FALSE(decodes(record_body(2, 1, {0b01, 10, 1, 6, 0})));
  // Entry count beyond the sanity cap, rejected before the bytes are read.
  EXPECT_FALSE(decodes(record_body(kMaxWireProfileEntries + 1, 1, {})));
  // A count the bytes cannot hold (every entry takes two bytes or more),
  // and a zero count (empty records ship no body).
  EXPECT_FALSE(decodes(record_body(3, 1, two_entry_bytes())));
  EXPECT_FALSE(decodes(record_body(0, 1, {})));
  // Unknown score-flags bytes.
  for (const std::uint8_t flags : {2, 3, 7, 0x80}) {
    EXPECT_FALSE(decodes(record_body(2, flags, two_entry_bytes()))) << int(flags);
  }
  // Over-long varints: a redundant zero continuation byte, and more than
  // 64 bits.
  EXPECT_FALSE(decodes(record_body(2, 1, {0b01, 0x8a, 0x00, 2, 6, 0})));
  {
    std::vector<std::uint8_t> bytes{0b01};
    bytes.insert(bytes.end(), 10, 0xff);
    bytes.push_back(0x01);
    bytes.insert(bytes.end(), {2, 6, 0});
    EXPECT_FALSE(decodes(record_body(2, 1, bytes)));
  }
  // A byte length past the input.
  EXPECT_FALSE(decodes(record_body(2, 1, two_entry_bytes(), 1)));
  // Trailing bytes inside the length.
  {
    std::vector<std::uint8_t> bytes = two_entry_bytes();
    bytes.push_back(0);
    EXPECT_FALSE(decodes(record_body(2, 1, bytes)));
  }
  // Nonzero padding bits past the last entry's mask bit.
  EXPECT_FALSE(decodes(record_body(2, 1, {0b101, 10, 2, 6, 0})));
  // The real-valued flag on 0/1 scores (canonically a mask), including
  // -0.0, which the mask encodes as 0.
  for (const double second : {0.0, 1.0, -0.0}) {
    std::vector<std::uint8_t> bytes;
    for (const double score : {1.0, second}) {
      const auto bits = std::bit_cast<std::uint64_t>(score);
      for (int b = 0; b < 8; ++b) bytes.push_back(static_cast<std::uint8_t>(bits >> (8 * b)));
    }
    std::vector<std::uint8_t> real = bytes;
    bytes.insert(bytes.end(), {10, 2, 6, 0});
    EXPECT_FALSE(decodes(record_body(2, 0, bytes))) << second;
    // The control: a score of 0.5 makes the flag canonical.
    const auto half = std::bit_cast<std::uint64_t>(0.5);
    for (int b = 0; b < 8; ++b) real[8 + b] = static_cast<std::uint8_t>(half >> (8 * b));
    real.insert(real.end(), {10, 2, 6, 0});
    EXPECT_TRUE(decodes(record_body(2, 0, real)));
  }
  // Timestamps outside int32: 2^31 directly, and INT32_MAX then +1.
  {
    std::vector<std::uint8_t> bytes{0b1, 10};
    varint_append(bytes, zigzag_encode(std::int64_t{1} << 31));
    EXPECT_FALSE(decodes(record_body(1, 1, bytes)));
    std::vector<std::uint8_t> at_max{0b11, 10, 2};
    varint_append(at_max, zigzag_encode(INT32_MAX));
    std::vector<std::uint8_t> past_max = at_max;
    at_max.push_back(0);
    past_max.push_back(2);  // zigzag(+1)
    EXPECT_TRUE(decodes(record_body(2, 1, at_max)));
    EXPECT_FALSE(decodes(record_body(2, 1, past_max)));
    std::vector<std::uint8_t> below_min{0b1, 10};
    varint_append(below_min, zigzag_encode(std::int64_t{INT32_MIN} - 1));
    EXPECT_FALSE(decodes(record_body(1, 1, below_min)));
  }
  // Every strict prefix of a valid body is rejected.
  const std::vector<std::uint8_t> body = record_body(2, 1, two_entry_bytes());
  for (std::size_t len = 0; len < body.size(); ++len) {
    WireReader r(body.data(), len);
    RecordImage image;
    EXPECT_FALSE(decode_record_body(r, image)) << "prefix length " << len;
  }
}

// A record the receiver builds from wire bytes equals the sender's record:
// same bytes, and the liked count, oldest timestamp and norm the one-pass
// parse derives are those CompactProfile::encode computed from the
// Profile (the norm to the bit).
TEST(Wire, RecordBuiltFromWireBytesEqualsTheEncodedRecord) {
  Profile negative;
  negative.set(4, -7, 1.0);
  negative.set(5, -40000, 0.0);
  negative.set(9, 12, 1.0);
  Profile real_wide;
  for (ItemId id = 1; id <= 12; ++id) real_wide.set(id * 3, static_cast<Cycle>(id) - 6, 0.1 * static_cast<double>(id));
  for (const Profile& p : {binary_profile(), real_profile(), wide_binary_profile(),
                           negative, real_wide, huge_id_profile()}) {
    const ProfileHandle sent = CompactProfile::encode(p);
    std::vector<std::uint8_t> buf;
    encode_record_body(buf, *sent.record());
    WireReader r(buf.data(), buf.size());
    RecordImage image;
    ASSERT_TRUE(decode_record_body(r, image));
    EXPECT_EQ(r.remaining(), 0u);
    for (const ProfileHandle& built : {item_record(image),
                                       SnapshotArena::instance().intern_image(image)}) {
      const RecordImage a = sent->image();
      const RecordImage b = built->image();
      EXPECT_TRUE(std::equal(a.bytes.begin(), a.bytes.end(), b.bytes.begin(), b.bytes.end()));
      EXPECT_EQ(built->size(), sent->size());
      EXPECT_EQ(built->binary_scores(), sent->binary_scores());
      EXPECT_EQ(built->liked_count(), sent->liked_count());
      EXPECT_EQ(built->oldest_timestamp(), sent->oldest_timestamp());
      EXPECT_EQ(std::bit_cast<std::uint64_t>(built->norm()),
                std::bit_cast<std::uint64_t>(sent->norm()));
      EXPECT_NE(built->version(), 0u);
      EXPECT_EQ(built.decode(), p);
    }
  }
}

TEST(Wire, FrameRoundTripAndStreaming) {
  const std::vector<std::uint8_t> a{1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> b{};  // empty frame = barrier token
  const std::vector<std::uint8_t> c(1000, 0xab);
  std::vector<std::uint8_t> stream;
  frame_append(stream, a);
  frame_append(stream, b);
  frame_append(stream, c);

  std::size_t offset = 0;
  std::span<const std::uint8_t> payload;
  ASSERT_EQ(frame_extract(stream.data(), stream.size(), offset, payload),
            FrameStatus::kOk);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), a.begin(), a.end()));
  ASSERT_EQ(frame_extract(stream.data(), stream.size(), offset, payload),
            FrameStatus::kOk);
  EXPECT_TRUE(payload.empty());
  ASSERT_EQ(frame_extract(stream.data(), stream.size(), offset, payload),
            FrameStatus::kOk);
  EXPECT_EQ(payload.size(), c.size());
  EXPECT_EQ(frame_extract(stream.data(), stream.size(), offset, payload),
            FrameStatus::kNeedMore);
  EXPECT_EQ(offset, stream.size());
}

TEST(Wire, PartialFramesNeedMore) {
  std::vector<std::uint8_t> stream;
  frame_append(stream, std::vector<std::uint8_t>{9, 8, 7});
  // Every strict prefix of the stream is "need more", never corrupt and
  // never a phantom frame.
  for (std::size_t len = 0; len < stream.size(); ++len) {
    std::size_t offset = 0;
    std::span<const std::uint8_t> payload;
    EXPECT_EQ(frame_extract(stream.data(), len, offset, payload),
              FrameStatus::kNeedMore)
        << "prefix length " << len;
    EXPECT_EQ(offset, 0u);
  }
}

TEST(Wire, CorruptFramesAreDetected) {
  // Flipped payload byte: checksum mismatch.
  {
    std::vector<std::uint8_t> stream;
    frame_append(stream, std::vector<std::uint8_t>{1, 2, 3, 4});
    stream[8] ^= 0x01;  // first payload byte
    std::size_t offset = 0;
    std::span<const std::uint8_t> payload;
    EXPECT_EQ(frame_extract(stream.data(), stream.size(), offset, payload),
              FrameStatus::kCorrupt);
  }
  // Flipped checksum byte.
  {
    std::vector<std::uint8_t> stream;
    frame_append(stream, std::vector<std::uint8_t>{1, 2, 3, 4});
    stream[4] ^= 0x01;
    std::size_t offset = 0;
    std::span<const std::uint8_t> payload;
    EXPECT_EQ(frame_extract(stream.data(), stream.size(), offset, payload),
              FrameStatus::kCorrupt);
  }
  // Every single-byte flip anywhere in a frame whose payload (75 bytes:
  // two full 32-byte checksum blocks and an 11-byte tail) is not a
  // multiple of 8: never a good frame. Payload and checksum flips are
  // checksum mismatches; a flipped length either waits for bytes that
  // never come or checks the wrong span.
  {
    std::vector<std::uint8_t> payload(75);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::uint8_t>(i * 37 + 11);
    }
    std::vector<std::uint8_t> good;
    frame_append(good, payload);
    for (std::size_t pos = 0; pos < good.size(); ++pos) {
      for (const std::uint8_t flip : {0x01, 0x10, 0x80, 0xff}) {
        std::vector<std::uint8_t> stream = good;
        stream[pos] ^= flip;
        std::size_t offset = 0;
        std::span<const std::uint8_t> out;
        const FrameStatus status = frame_extract(stream.data(), stream.size(), offset, out);
        if (pos >= 4) {
          EXPECT_EQ(status, FrameStatus::kCorrupt) << "byte " << pos << " flip " << int(flip);
        } else {
          EXPECT_NE(status, FrameStatus::kOk) << "byte " << pos << " flip " << int(flip);
        }
      }
    }
  }
  // Absurd length prefix: rejected before waiting for gigabytes.
  {
    std::vector<std::uint8_t> stream(8, 0xff);
    std::size_t offset = 0;
    std::span<const std::uint8_t> payload;
    EXPECT_EQ(frame_extract(stream.data(), stream.size(), offset, payload),
              FrameStatus::kCorrupt);
  }
}

// ---- Link snapshot tables ----

// Byte offset of a descriptor's snapshot tag when node and timestamp both
// encode as one-byte varints.
constexpr std::size_t kTagOffset = 2;
constexpr std::uint8_t kTagFull = 2;
constexpr std::uint8_t kTagRef = 3;

std::uint64_t counter_value(const char* name) {
  for (const obs::MetricValue& m : obs::Registry::instance().merge()) {
    if (m.name == name) return m.value;
  }
  return 0;
}

TEST(WireLink, FirstShipIsFullSecondIsReference) {
  obs::Registry::instance().reset();
  obs::set_enabled(true);
  Link link;
  const Descriptor in = make_descriptor(7, 12, wide_binary_profile());
  std::vector<std::uint8_t> first;
  std::vector<std::uint8_t> second;
  encode_descriptor(first, in, link.tx);
  encode_descriptor(second, in, link.tx);
  obs::set_enabled(false);
  EXPECT_EQ(counter_value("wire.snapshot.full"), 1u);
  EXPECT_EQ(counter_value("wire.snapshot.ref"), 1u);
  ASSERT_GT(first.size(), kTagOffset);
  ASSERT_GT(second.size(), kTagOffset);
  EXPECT_EQ(first[kTagOffset], kTagFull);
  EXPECT_EQ(second[kTagOffset], kTagRef);
  EXPECT_LT(second.size(), first.size());

  Descriptor a;
  Descriptor b;
  WireReader ra(first.data(), first.size());
  ASSERT_TRUE(decode_descriptor(ra, a, link.rx));
  WireReader rb(second.data(), second.size());
  ASSERT_TRUE(decode_descriptor(rb, b, link.rx));
  EXPECT_EQ(rb.remaining(), 0u);
  // The reference resolves to the very record the full ship interned.
  EXPECT_EQ(a.profile(), b.profile());
  EXPECT_EQ(b.node, 7u);
  EXPECT_EQ(b.timestamp(), 12);
  EXPECT_EQ(b.decoded_profile(), wide_binary_profile());
  // Another link starts cold: its first crossing ships in full again.
  Link other;
  std::vector<std::uint8_t> third;
  encode_descriptor(third, in, other.tx);
  EXPECT_EQ(third[kTagOffset], kTagFull);
}

TEST(WireLink, ReusedBlobIndexWithNewVersionShipsFull) {
  SnapshotArena& arena = SnapshotArena::instance();
  Link link;
  std::vector<std::uint8_t> first;
  ArenaIndex index = kNullArenaIndex;
  {
    // A detached record frees its slot as soon as the descriptor drops.
    const Descriptor d{1, 5, arena.encode_detached(binary_profile())};
    index = d.profile().slot();
    encode_descriptor(first, d, link.tx);
  }
  const Descriptor d{1, 6, arena.encode_detached(real_profile())};
  ASSERT_EQ(d.profile().slot(), index) << "the arena recycles the freed slot";
  std::vector<std::uint8_t> second;
  encode_descriptor(second, d, link.tx);
  EXPECT_EQ(first[kTagOffset], kTagFull);
  EXPECT_EQ(second[kTagOffset], kTagFull);  // same slot, new version

  Descriptor out;
  WireReader ra(first.data(), first.size());
  ASSERT_TRUE(decode_descriptor(ra, out, link.rx));
  EXPECT_EQ(out.decoded_profile(), binary_profile());
  WireReader rb(second.data(), second.size());
  ASSERT_TRUE(decode_descriptor(rb, out, link.rx));
  EXPECT_EQ(out.decoded_profile(), real_profile());
}

// A hand-built descriptor: one-byte node and timestamp, then `tag`,
// `slot` and `version`.
std::vector<std::uint8_t> descriptor_bytes(std::uint8_t tag, std::uint64_t slot,
                                           std::uint64_t version) {
  std::vector<std::uint8_t> buf;
  wire_varint(buf, 4);
  wire_zigzag(buf, 9);
  wire_u8(buf, tag);
  wire_varint(buf, slot);
  wire_varint(buf, version);
  return buf;
}

TEST(WireLink, OutOfRangeIndexIsRejected) {
  Link link(8);
  for (const std::uint8_t tag : {kTagFull, kTagRef}) {
    for (const std::uint64_t slot : {std::uint64_t{8}, std::uint64_t{1} << 40}) {
      std::vector<std::uint8_t> buf = descriptor_bytes(tag, slot, 1);
      // A record body, for the full tag.
      encode_record_body(buf, *CompactProfile::encode(binary_profile()).record());
      WireReader r(buf.data(), buf.size());
      Descriptor out;
      EXPECT_FALSE(decode_descriptor(r, out, link.rx))
          << "tag " << int(tag) << " slot " << slot;
    }
  }
  // Unknown tag.
  std::vector<std::uint8_t> buf = descriptor_bytes(4, 0, 1);
  WireReader r(buf.data(), buf.size());
  Descriptor out;
  EXPECT_FALSE(decode_descriptor(r, out, link.rx));
}

TEST(WireLink, VersionMismatchIsRejected) {
  Link link;
  const Descriptor in = make_descriptor(4, 9, binary_profile());
  const std::uint64_t version = in.profile().version();
  std::vector<std::uint8_t> full;
  encode_descriptor(full, in, link.tx);
  // The slot the sender chose, as the full ship names it.
  WireReader header(full.data(), full.size());
  (void)header.read_varint();
  (void)header.read_zigzag();
  ASSERT_EQ(header.read_u8(), kTagFull);
  const std::uint64_t slot = header.read_varint();
  ASSERT_EQ(header.read_varint(), version);
  // A reference into the still-vacant slot.
  {
    std::vector<std::uint8_t> buf = descriptor_bytes(kTagRef, slot, version);
    WireReader r(buf.data(), buf.size());
    Descriptor out;
    EXPECT_FALSE(decode_descriptor(r, out, link.rx));
  }
  WireReader rf(full.data(), full.size());
  Descriptor out;
  ASSERT_TRUE(decode_descriptor(rf, out, link.rx));
  // The right slot under another version, and version 0 (the vacant key).
  for (const std::uint64_t other : {version + 1, std::uint64_t{0}}) {
    std::vector<std::uint8_t> buf = descriptor_bytes(kTagRef, slot, other);
    WireReader r(buf.data(), buf.size());
    EXPECT_FALSE(decode_descriptor(r, out, link.rx)) << "version " << other;
  }
  // The matching reference resolves.
  std::vector<std::uint8_t> ok = descriptor_bytes(kTagRef, slot, version);
  WireReader r(ok.data(), ok.size());
  ASSERT_TRUE(decode_descriptor(r, out, link.rx));
  EXPECT_EQ(out.decoded_profile(), binary_profile());
}

// A news message carrying `item`.
Message news_message(NodeId to, const ProfileHandle& item) {
  Message m;
  m.type = MsgType::kNews;
  m.from = 1;
  m.to = to;
  m.sent_at = 30;
  NewsPayload n;
  n.id = 77;
  n.index = 5;
  n.item_profile = item;
  m.payload = std::move(n);
  return m;
}

// Every strict prefix of a batch whose second half rides references —
// snapshot table references and item back-references — is rejected,
// except the cuts exactly between envelopes, which are valid shorter
// batches. A reader that fails on a reference must fail cleanly, whatever
// state the table reached.
TEST(WireLink, EveryPrefixOfABatchWithReferencesIsRejected) {
  Link link;
  const Message m = view_message(MsgType::kWupReply);
  const ProfileHandle item = item_record(real_profile());
  std::vector<std::uint8_t> batch;
  std::vector<std::size_t> boundaries;  // envelope ends
  const auto append = [&](Cycle due, const Message& message) {
    encode_envelope(batch, due, message, link.tx);
    boundaries.push_back(batch.size());
  };
  append(40, m);
  append(40, news_message(4, item));
  const std::size_t half = batch.size();
  append(41, m);                      // every snapshot now a reference
  append(41, news_message(6, item));  // the item a back-reference
  ASSERT_LT(batch.size() - half, half);
  for (std::size_t len = 0; len < batch.size(); ++len) {
    SnapshotRecvTable rx(link.rx.slots());
    WireReader r(batch.data(), len);
    std::size_t decoded = 0;
    bool failed = false;
    while (r.ok() && r.remaining() > 0) {
      Cycle due = 0;
      Message out;
      if (!decode_envelope(r, due, out, rx)) {
        failed = true;
        break;
      }
      ++decoded;
    }
    const auto cut = std::find(boundaries.begin(), boundaries.end(), len);
    if (cut != boundaries.end()) {
      EXPECT_FALSE(failed) << "prefix length " << len;
      EXPECT_EQ(decoded, static_cast<std::size_t>(cut - boundaries.begin()) + 1);
    } else {
      EXPECT_TRUE(failed || len == 0) << "prefix length " << len;
    }
  }
  // A table that missed the first half resolves neither the snapshot
  // references nor the item back-reference.
  for (std::size_t k = 2; k < 4; ++k) {
    SnapshotRecvTable cold(link.rx.slots());
    WireReader r(batch.data() + boundaries[k - 1], boundaries[k] - boundaries[k - 1]);
    Cycle due = 0;
    Message out;
    EXPECT_FALSE(decode_envelope(r, due, out, cold)) << "envelope " << k;
  }
}

// The fLIKE fan-out of one forward: four news envelopes in one batch
// sharing one item record ship it once in full and then by ordinal, and
// decode to one shared record. The next batch starts over.
TEST(WireLink, ItemFanOutShipsOnceAndDecodesToOneRecord) {
  obs::Registry::instance().reset();
  obs::set_enabled(true);
  Link link;
  const ProfileHandle item = item_record(real_profile());
  for (int round = 0; round < 2; ++round) {
    std::vector<std::uint8_t> batch;
    std::vector<std::size_t> sizes;
    for (NodeId to = 2; to < 6; ++to) {
      const std::size_t before = batch.size();
      encode_envelope(batch, 50 + round, news_message(to, item), link.tx);
      sizes.push_back(batch.size() - before);
    }
    link.tx.end_batch();
    EXPECT_EQ(counter_value("wire.item.full"), 1u + static_cast<std::uint64_t>(round));
    EXPECT_EQ(counter_value("wire.item.ref"), 3u * (1u + static_cast<std::uint64_t>(round)));
    for (std::size_t k = 1; k < sizes.size(); ++k) EXPECT_LT(sizes[k], sizes[0]);

    WireReader r(batch.data(), batch.size());
    std::vector<ProfileHandle> decoded;
    for (NodeId to = 2; to < 6; ++to) {
      Cycle due = 0;
      Message out;
      ASSERT_TRUE(decode_envelope(r, due, out, link.rx));
      EXPECT_EQ(out.to, to);
      decoded.push_back(out.news().item_profile);
    }
    EXPECT_EQ(r.remaining(), 0u);
    link.rx.end_batch();
    for (const ProfileHandle& h : decoded) EXPECT_EQ(h, decoded.front());
    EXPECT_NE(decoded.front(), item);  // the receiver's own record
    EXPECT_EQ(decoded.front().decode(), real_profile());
    // Four payloads share the record; end_batch() dropped the table's hold.
    EXPECT_EQ(decoded.front().use_count(), 4);
  }
  obs::set_enabled(false);
}

// A randomized corpus through a 2-slot link: snapshots collide in the
// table constantly, so full ships evict each other, and every decoded
// descriptor must still carry exactly the contents that were encoded.
TEST(WireLink, RandomCorpusThroughCollidingTableDecodesIdentically) {
  Rng rng(2024);
  std::vector<Profile> pool;
  for (int i = 0; i < 12; ++i) {
    Profile p;
    const std::size_t n = rng.index(14);
    for (std::size_t k = 0; k < n; ++k) {
      p.set(rng.index(200) + 1, static_cast<Cycle>(rng.index(50)) - 5,
            i % 4 == 0 ? rng.uniform() : static_cast<double>(rng.index(2)));
    }
    pool.push_back(p);
  }
  std::vector<ProfileHandle> handles;
  for (const Profile& p : pool) handles.push_back(ProfileHandle::snapshot(p));

  obs::Registry::instance().reset();
  obs::set_enabled(true);
  Link link(2);
  std::size_t profiled = 0;
  for (int batch = 0; batch < 40; ++batch) {
    std::vector<Message> sent;
    std::vector<std::uint8_t> bytes;
    const std::size_t messages = 1 + rng.index(4);
    for (std::size_t k = 0; k < messages; ++k) {
      Message m;
      m.from = static_cast<NodeId>(rng.index(100));
      m.to = static_cast<NodeId>(rng.index(100));
      m.type = MsgType::kRpsReply;
      ViewPayload v;
      const auto pick = [&](NodeId node) {
        const Cycle ts = static_cast<Cycle>(rng.index(300));
        switch (rng.index(4)) {
          case 0:
            return Descriptor{node, ts, nullptr};
          default: {
            const std::size_t i = rng.index(pool.size());
            if (!pool[i].empty()) ++profiled;
            return Descriptor{node, ts, handles[i]};
          }
        }
      };
      v.sender = pick(m.from);
      const std::size_t width = rng.index(6);
      for (std::size_t d = 0; d < width; ++d) {
        v.view.push_back(pick(static_cast<NodeId>(rng.index(100))));
      }
      m.payload = std::move(v);
      encode_envelope(bytes, static_cast<Cycle>(batch), m, link.tx);
      sent.push_back(std::move(m));
    }
    WireReader r(bytes.data(), bytes.size());
    for (const Message& in : sent) {
      Cycle due = 0;
      Message out;
      ASSERT_TRUE(decode_envelope(r, due, out, link.rx)) << "batch " << batch;
      EXPECT_EQ(due, batch);
      expect_view_equal(out.view(), in.view());
      EXPECT_EQ(out.view().sender.has_profile(), in.view().sender.has_profile());
      EXPECT_EQ(out.view().sender.decoded_profile(), in.view().sender.decoded_profile());
    }
    EXPECT_EQ(r.remaining(), 0u);
  }
  obs::set_enabled(false);
  const std::uint64_t full = counter_value("wire.snapshot.full");
  const std::uint64_t ref = counter_value("wire.snapshot.ref");
  EXPECT_EQ(full + ref, profiled);
  EXPECT_GT(full, 0u);
  EXPECT_GT(ref, 0u);
}

// An encoded envelope survives the frame layer byte-exactly — the full
// path a cross-fragment message takes (encode -> frame -> socket ->
// extract -> decode).
TEST(Wire, EnvelopeThroughFrameLayer) {
  Link link;
  std::vector<std::uint8_t> batch;
  const Message in = view_message(MsgType::kWupRequest);
  encode_envelope(batch, 41, in, link.tx);
  std::vector<std::uint8_t> stream;
  frame_append(stream, batch);

  std::size_t offset = 0;
  std::span<const std::uint8_t> payload;
  ASSERT_EQ(frame_extract(stream.data(), stream.size(), offset, payload),
            FrameStatus::kOk);
  WireReader r(payload);
  Cycle due = 0;
  Message out;
  ASSERT_TRUE(decode_envelope(r, due, out, link.rx));
  EXPECT_EQ(due, 41);
  EXPECT_EQ(out.type, MsgType::kWupRequest);
  expect_view_equal(out.view(), in.view());
  EXPECT_EQ(r.remaining(), 0u);
}

}  // namespace
}  // namespace whatsup::net
