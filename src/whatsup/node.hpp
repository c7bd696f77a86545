// The WhatsUp node: Algorithm 1 (profile maintenance and item-profile
// aggregation) wired to the RPS + WUP gossip substrate and the BEEP
// dissemination protocol. One WhatsUpAgent per user.
//
// The same class implements WHATSUP and WHATSUP-Cos: the `metric` config
// switches both the WUP clustering similarity and BEEP's orientation.
#pragma once

#include <memory>

#include "beep/beep.hpp"
#include "common/sorted_set.hpp"
#include "gossip/clustering_protocol.hpp"
#include "gossip/hygiene.hpp"
#include "gossip/rps.hpp"
#include "profile/obfuscation.hpp"
#include "profile/snapshot.hpp"
#include "sim/engine.hpp"
#include "sim/opinions.hpp"
#include "sim/reliability.hpp"
#include "whatsup/params.hpp"

namespace whatsup {

struct WhatsUpConfig {
  Params params;
  Metric metric = Metric::kWup;
  bool beep_amplification = true;  // ablation switch (§III-B)
  bool beep_orientation = true;    // ablation switch (§III-A)
  // Profile obfuscation (§VII): when enabled, gossiped descriptors carry a
  // randomized-response snapshot; local decisions keep the true profile.
  ObfuscationConfig obfuscation;
  // Opt-in ack/retransmit layer for BEEP forwards (sim/reliability.hpp).
  sim::ReliabilityConfig reliability;
  // Opt-in failure-aware view hygiene (gossip/hygiene.hpp).
  gossip::ViewHygieneConfig hygiene;

  beep::BeepConfig beep_config() const {
    return beep::BeepConfig{params.f_like,  params.f_dislike,    params.beep_ttl,
                            metric,         beep_amplification,  beep_orientation};
  }
};

// Alg. 1 on one received news item: the item profile the payload carries
// (a detached record, profile/compact.hpp; null is the empty profile) and
// the receiver's user profile `user`.
//
// like_item folds `user` into the item profile (lines 3-4), records the
// like in `user`, keyed by the item's creation cycle so the profile window
// measures item age (line 5), then drops the item entries older than
// `cutoff` (lines 8-10): one decode and one record written, or none when
// `user` is empty and nothing is older than `cutoff`. dislike_item records
// the dislike (line 7) and keeps the record as it is unless its header's
// oldest timestamp is older than `cutoff`. Every record written counts
// `beep.item_profile.encodes` when telemetry is on.
//
// The steps run in Alg. 1's order, so the profiles draw their version
// stamps in that order too. The wire link tables key snapshots by version
// and ship it as a varint, so the draw order shows in the bytes a
// partitioned run sends (never in its trajectory).
void like_item(ProfileHandle& item, Profile& user, ItemId id, Cycle created, Cycle cutoff);
void dislike_item(ProfileHandle& item, Profile& user, ItemId id, Cycle created, Cycle cutoff);

class WhatsUpAgent : public sim::Agent {
 public:
  WhatsUpAgent(NodeId self, WhatsUpConfig config, const sim::Opinions& opinions);

  // sim::Agent
  void on_cycle(sim::Context& ctx) override;
  void on_message(sim::Context& ctx, const net::Message& message) override;
  void publish(sim::Context& ctx, ItemIdx index, ItemId id) override;
  // Crash recovery: drop soft state (views, retransmission queue) and
  // rebuild via a rejoin handshake; the profile and SIR state model
  // durable storage and survive.
  void on_recover(sim::Context& ctx) override;

  // Seed the views directly (bootstrap server stand-in at deployment
  // start; also used to wire deterministic topologies in tests).
  void bootstrap_rps(std::vector<net::Descriptor> seed);
  void bootstrap_wup(std::vector<net::Descriptor> seed);

  // Cold start (§II-D): inherit the RPS and WUP views of `contact`, then
  // build a fresh profile by liking the `cold_start_items` most popular
  // items found in the inherited RPS-view profiles.
  void cold_start_from(sim::Context& ctx, const WhatsUpAgent& contact);

  // Probes used by tests and the Fig. 7 convergence experiments.
  NodeId id() const { return self_; }
  const Profile& user_profile() const { return profile_; }
  const gossip::View& rps_view() const { return rps_.view(); }
  const gossip::View& wup_view() const { return wup_.view(); }
  const WhatsUpConfig& config() const { return config_; }
  double avg_wup_similarity() const { return wup_.avg_similarity(profile_); }
  bool has_seen(ItemId id) const { return seen_.contains(id); }
  // When the corresponding feature is off these return empty statics (the
  // per-agent state only exists when some opt-in feature is configured).
  const sim::RetransmitQueue& retransmit_queue() const;
  const gossip::ViewHygiene& hygiene() const;

 private:
  void handle_news(sim::Context& ctx, NodeId from, net::NewsPayload news);
  void forward(sim::Context& ctx, bool liked, net::NewsPayload news);
  void handle_rejoin_request(sim::Context& ctx, const net::ViewPayload& payload);
  // Resend due retransmissions; evict peers whose retries exhausted the
  // hygiene suspicion limit.
  void pump_retransmissions(sim::Context& ctx);

  // This node's own fresh descriptor at `now`, carrying the profile it
  // discloses: the cached obfuscated snapshot when obfuscation is on, the
  // true profile otherwise. RPS, WUP and the rejoin handshake all ship it.
  net::Descriptor self_descriptor(Cycle now);

  // State for the opt-in layers (reliability, view hygiene, obfuscation),
  // allocated only when at least one of them is configured on. The
  // baseline protocol never touches any of it, and at the million-node
  // scale its inline members (cached obfuscated Profile 280 B, retransmit
  // queue 104 B, hygiene table 56 B on x86-64 libstdc++) would be a
  // significant slice of the per-node footprint in runs that enable none
  // of them.
  struct OptInState {
    explicit OptInState(const WhatsUpConfig& config)
        : retx(config.reliability), hygiene(config.hygiene) {}

    sim::RetransmitQueue retx;     // reliability layer
    gossip::ViewHygiene hygiene;   // failure-aware view hygiene
    // Rebuilds the disclosed snapshot only when the profile version or the
    // obfuscation epoch changes (perf only; see docs/perf.md).
    ObfuscatedProfileCache obfuscation_cache;
  };

  bool hygiene_on() const { return opt_in_ != nullptr && opt_in_->hygiene.enabled(); }

  NodeId self_;
  WhatsUpConfig config_;
  const sim::Opinions* opinions_;
  Profile profile_;  // the user profile P~ (binary scores)
  // One snapshot record per disclosed generation and one stamp record per
  // cycle, shared by every descriptor this node sends.
  ProfileSnapshotCache snapshot_cache_;
  gossip::Rps rps_;
  gossip::ClusteringProtocol wup_;
  SortedIdSet<ItemId, 4> seen_;  // SIR "removed" state (flat sorted, inline)
  std::unique_ptr<OptInState> opt_in_;  // null when every opt-in layer is off
};

}  // namespace whatsup
