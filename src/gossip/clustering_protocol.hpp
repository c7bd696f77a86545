// The WUP clustering protocol (paper §II, in the style of Vicinity
// [Voulgaris & van Steen, Euro-Par'05]).
//
// Maintains the implicit social network: a view of the `WUPvs` peers whose
// profiles are most similar to the node's own, under a pluggable metric
// (the paper's asymmetric WUP metric, or cosine for the *-Cos variants).
// Each period the node contacts its oldest entry and sends its profile with
// its ENTIRE view; receiver (and initiator, on the symmetric reply) keeps
// the closest entries from the union of its view, the received view, and
// its current RPS view (the RPS stream feeds fresh random candidates).
#pragma once

#include "gossip/view.hpp"
#include "sim/engine.hpp"

namespace whatsup::gossip {

class ClusteringProtocol {
 public:
  ClusteringProtocol(NodeId self, std::size_t view_size, Metric metric, Cycle period);

  const View& view() const { return view_; }
  View& view() { return view_; }
  Metric metric() const { return metric_; }

  void bootstrap(std::vector<net::Descriptor> seed);

  // Active thread; `rps_view` provides the fallback gossip target while
  // the WUP view is still empty. `self` is the node's own fresh
  // descriptor, stamped by its agent with the profile it discloses (an
  // obfuscated snapshot under §VII's profile obfuscation).
  void step(sim::Context& ctx, const net::Descriptor& self, const View& rps_view);
  // Whether step() at `now` sends: it is due and either view has a member.
  bool will_send(Cycle now, const View& rps_view) const;

  // Passive thread. `own_profile` drives the similarity-based view
  // selection (always the node's TRUE profile); `rps_view` feeds it fresh
  // random candidates.
  void on_request(sim::Context& ctx, const net::ViewPayload& payload,
                  const net::Descriptor& self, const Profile& own_profile,
                  const View& rps_view);
  void on_reply(sim::Context& ctx, const net::ViewPayload& payload,
                const Profile& own_profile, const View& rps_view);

  // Average similarity between `own_profile` and the current view members
  // (the convergence measure of Fig. 7a/7b).
  double avg_similarity(const Profile& own_profile) const;

 private:
  net::ViewPayload make_payload(const net::Descriptor& self) const;
  void merge(sim::Context& ctx, const net::ViewPayload& payload,
             const Profile& own_profile, const View& rps_view);

  NodeId self_;
  View view_;
  Metric metric_;
  Cycle period_;
};

}  // namespace whatsup::gossip
