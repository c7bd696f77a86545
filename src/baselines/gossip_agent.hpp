// Homogeneous gossip baseline (Table III's "Gossip" row): a standard SIR
// epidemic over the RPS overlay. Every node forwards each item it receives
// for the first time to `fanout` uniformly random RPS members — regardless
// of its opinion. Delivers to (nearly) everyone: recall ~1, precision =
// the dataset's mean popularity.
#pragma once

#include <unordered_set>

#include "gossip/rps.hpp"
#include "sim/engine.hpp"
#include "sim/opinions.hpp"

namespace whatsup::baselines {

class GossipAgent : public sim::Agent {
 public:
  GossipAgent(NodeId self, int fanout, int rps_view_size, Cycle rps_period,
              const sim::Opinions& opinions);

  void on_cycle(sim::Context& ctx) override;
  void on_message(sim::Context& ctx, const net::Message& message) override;
  void publish(sim::Context& ctx, ItemIdx index, ItemId id) override;

  void bootstrap_rps(std::vector<net::Descriptor> seed);
  const gossip::View& rps_view() const { return rps_.view(); }

 private:
  void spread(sim::Context& ctx, net::NewsPayload news, bool liked);
  // Plain gossip keeps no profile: its RPS descriptors carry the shared
  // empty snapshot.
  net::Descriptor self_descriptor(Cycle now) const {
    return net::Descriptor{self_, now, empty_profile_handle()};
  }

  NodeId self_;
  int fanout_;
  const sim::Opinions* opinions_;
  gossip::Rps rps_;
  std::unordered_set<ItemId> seen_;
};

}  // namespace whatsup::baselines
