// Message taxonomy of the WhatsUp stack. Three protocols share the wire:
// RPS and WUP view gossip (request/reply) and BEEP news dissemination.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/ids.hpp"
#include "profile/compact.hpp"
#include "profile/profile.hpp"

namespace whatsup::net {

enum class MsgType : std::uint8_t {
  kRpsRequest,
  kRpsReply,
  kWupRequest,
  kWupReply,
  kNews,
  // Reliability layer (opt-in; see sim/reliability.hpp): per-copy news
  // acknowledgment, and the rejoin handshake recovered nodes use to
  // rebuild their views instead of resurrecting pre-crash state.
  kAck,
  kRejoinRequest,
  kRejoinReply,
};

// Protocol family, used for traffic accounting (Fig. 8b splits bandwidth
// into view maintenance = RPS+WUP vs news dissemination = BEEP; kCtrl is
// the reliability layer's control overhead — acks — reported separately so
// the recall-vs-traffic tradeoff can be re-scored under faults).
enum class Protocol : std::uint8_t { kRps, kWup, kBeep, kCtrl };
// Number of Protocol enumerators; sizes every per-protocol counter array
// (net::Traffic, sim::Shard) so they cannot drift from the enum.
inline constexpr std::size_t kNumProtocols = 4;

Protocol protocol_of(MsgType type);
std::string to_string(MsgType type);
std::string to_string(Protocol protocol);

// A view entry as shipped on the wire: node address/id, the time the owner
// generated the entry, and a snapshot of the owner's profile (§II). Packed
// to 8 bytes: the node id plus a 4-byte DescriptorRef — either an inline
// timestamp (profile-less bootstrap entries) or an index into the snapshot
// arena's stamp-record pool, where the timestamp lives next to the blob
// reference and is SHARED by every copy of the generation
// (profile/compact.hpp). Gossip exchanges copy a refcount, never the
// profile contents.
struct Descriptor {
  NodeId node = kNoNode;

  Descriptor() = default;
  Descriptor(NodeId n, DescriptorRef ref) : node(n), entry_(std::move(ref)) {}
  Descriptor(NodeId n, Cycle timestamp, const ProfileHandle& profile)
      : node(n), entry_(DescriptorRef::make(timestamp, profile)) {}
  Descriptor(NodeId n, Cycle timestamp, std::nullptr_t)
      : node(n), entry_(DescriptorRef::make(timestamp, ProfileHandle())) {}

  Cycle timestamp() const { return entry_.timestamp(); }
  bool has_profile() const { return entry_.has_profile(); }
  // Snapshot entry count, read without decoding (the wire-size model).
  std::size_t profile_size() const { return entry_.profile_size(); }
  // Retained handle on the snapshot (cold paths; null if !has_profile()).
  ProfileHandle profile() const { return entry_.profile(); }
  // The snapshot record, borrowed while this descriptor lives (what
  // SimilarityScorer scores); nullptr if !has_profile().
  const CompactProfile* snapshot() const { return entry_.snapshot(); }
  // A decoded copy of the snapshot (cold paths); empty if !has_profile().
  Profile decoded_profile() const { return entry_.decode(); }
  // Cache hint ahead of snapshot() (see DescriptorRef::prefetch).
  void prefetch(DescriptorRef::Prefetch stage) const { entry_.prefetch(stage); }

 private:
  DescriptorRef entry_;
};

// Snapshots `profile`'s current contents into a fresh compact record.
// Send paths use their node's ProfileSnapshotCache (profile/snapshot.hpp),
// which reuses the records while (version, timestamp) is unchanged; this
// helper is for tests, bootstrap wiring, and other cold paths.
inline Descriptor make_descriptor(NodeId node, Cycle timestamp, const Profile& profile) {
  return Descriptor{node, timestamp, ProfileHandle::snapshot(profile)};
}

// Wraps an existing snapshot without re-encoding.
inline Descriptor make_descriptor(NodeId node, Cycle timestamp, ProfileHandle snapshot) {
  return Descriptor{node, timestamp, snapshot};
}

// Payload of RPS/WUP gossip: the sender's own fresh descriptor plus the
// exchanged view slice (half the view for RPS, the whole view for WUP).
struct ViewPayload {
  Descriptor sender;
  std::vector<Descriptor> view;
};

// Payload of a BEEP news message (paper §II-A): item identity plus the
// path-dependent item profile and the dislike counter. `hops` and
// `via_dislike` are measurement-only fields (not part of the wire format
// proper; they stand in for the tracing the authors instrumented).
//
// The item profile is a handle to an immutable detached arena record
// (null: the empty profile; see like_item in whatsup/node.hpp):
// replicating the payload for a fan-out of fLIKE targets bumps a refcount
// fLIKE times, and a receiver whose hop changes the profile writes a new
// record. SizeModel keeps charging the LOGICAL wire size of the full
// profile per message, read from the record header.
//
// Field order is packed (8-byte members first) and the measurement tail is
// narrowed to its actual ranges, which keeps the payload at 32 bytes —
// level with ViewPayload since the 8-byte descriptor packing, so news
// messages no longer set the variant's size floor. The narrow fields are
// safe by protocol structure: `dislikes` is TTL-bounded (BEEP drops a copy
// at d_I >= ttl — beep.cpp; the TTL sweep tops out at 8) and `hops` grows
// at most once per cycle, so a run would need >32k cycles to overflow it
// (the wire decoder rejects out-of-range values rather than truncating).
struct NewsPayload {
  ItemId id = 0;
  ProfileHandle item_profile;
  ItemIdx index = kNoItem;
  Cycle created = 0;
  NodeId origin = kNoNode;
  std::int16_t hops = 0;       // path length from the source
  std::int8_t dislikes = 0;    // d_I, §II-A (TTL-bounded)
  bool via_dislike = false;    // last forward was performed by a disliker
};

// Payload of a reliability-layer acknowledgment: the receiver confirms one
// news copy back to its immediate forwarder, which clears the matching
// (item, target) entry from the sender's retransmission queue. `hop`
// echoes the acknowledged copy's hop count.
struct AckPayload {
  ItemId item = 0;
  int hop = 0;
};

// Any message body; Message::payload holds exactly one.
using Payload = std::variant<ViewPayload, NewsPayload, AckPayload>;

// The envelope. Header fields are ordered to pack into 16 bytes; with the
// 32-byte payload alternatives the whole envelope is 56 bytes (88 before
// the PR 8 field reordering, 64 before the 8-byte descriptor packing and
// the NewsPayload tail narrowing). Envelopes dominate the mailbox-ring
// storm peak at the million-node scale (docs/perf.md "Memory map"), so the
// static_asserts below pin the budget.
struct Message {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  Cycle sent_at = 0;
  // Position within the sender's turn (stamped by sim::Context::send; a
  // message handed straight to Engine::send keeps 0). Purely a label for
  // the canonical (cycle, phase, sender, seq) order — commits rely on outbox
  // position, never on this field — kept for diagnostics and asserted in
  // tests/test_shard.cpp. 16 bits: a turn sends a handful of messages
  // (fLIKE fan-out plus gossip replies), nowhere near 65k.
  std::uint16_t seq = 0;
  MsgType type = MsgType::kNews;
  Payload payload;

  const ViewPayload& view() const { return std::get<ViewPayload>(payload); }
  const NewsPayload& news() const { return std::get<NewsPayload>(payload); }
  const AckPayload& ack() const { return std::get<AckPayload>(payload); }
};

// Envelope budget (64-bit platforms): the packing above is load-bearing
// for peak bytes/node, so regressions should fail the build, not show up
// as a bench delta three PRs later.
static_assert(sizeof(Descriptor) == 8,
              "packed descriptor: u32 node id + u32 arena ref");
static_assert(sizeof(void*) != 8 || sizeof(ViewPayload) == 32);
static_assert(sizeof(void*) != 8 || sizeof(NewsPayload) == 32);
static_assert(sizeof(void*) != 8 || sizeof(Message) <= 56);

}  // namespace whatsup::net
