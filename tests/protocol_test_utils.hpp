// Shared test harness: minimal agents exposing single protocols so RPS and
// WUP clustering can be exercised in isolation inside a real engine.
#pragma once

#include <memory>
#include <vector>

#include "gossip/clustering_protocol.hpp"
#include "gossip/rps.hpp"
#include "profile/snapshot.hpp"
#include "sim/engine.hpp"

namespace whatsup::gossip::testing {

// Agent running only the RPS layer, with a fixed (possibly empty) profile.
class RpsOnlyAgent : public sim::Agent {
 public:
  RpsOnlyAgent(NodeId self, std::size_t view_size, Profile profile = {})
      : self_(self), profile_(std::move(profile)), rps_(self, view_size, 1) {}

  void on_cycle(sim::Context& ctx) override { rps_.step(ctx, self_descriptor(ctx.now())); }
  void on_message(sim::Context& ctx, const net::Message& m) override {
    switch (m.type) {
      case net::MsgType::kRpsRequest:
        rps_.on_request(ctx, m.view(), self_descriptor(ctx.now()));
        break;
      case net::MsgType::kRpsReply: rps_.on_reply(ctx, m.view()); break;
      default: break;
    }
  }
  void publish(sim::Context&, ItemIdx, ItemId) override {}

  Rps& rps() { return rps_; }
  const View& view() const { return rps_.view(); }

 private:
  net::Descriptor self_descriptor(Cycle now) {
    return net::Descriptor{self_, snapshot_cache_.stamp(now, profile_)};
  }

  NodeId self_;
  Profile profile_;
  ProfileSnapshotCache snapshot_cache_;
  Rps rps_;
};

// Agent running RPS + the WUP clustering protocol over a FIXED profile, so
// convergence towards ground-truth neighbors is directly observable.
class ClusteringAgent : public sim::Agent {
 public:
  ClusteringAgent(NodeId self, std::size_t rps_size, std::size_t wup_size,
                  Metric metric, Profile profile)
      : self_(self),
        profile_(std::move(profile)),
        rps_(self, rps_size, 1),
        wup_(self, wup_size, metric, 1) {}

  void on_cycle(sim::Context& ctx) override {
    const net::Descriptor self = self_descriptor(ctx.now());
    rps_.step(ctx, self);
    wup_.step(ctx, self, rps_.view());
  }
  void on_message(sim::Context& ctx, const net::Message& m) override {
    switch (m.type) {
      case net::MsgType::kRpsRequest:
        rps_.on_request(ctx, m.view(), self_descriptor(ctx.now()));
        break;
      case net::MsgType::kRpsReply: rps_.on_reply(ctx, m.view()); break;
      case net::MsgType::kWupRequest:
        wup_.on_request(ctx, m.view(), self_descriptor(ctx.now()), profile_, rps_.view());
        break;
      case net::MsgType::kWupReply:
        wup_.on_reply(ctx, m.view(), profile_, rps_.view());
        break;
      default: break;
    }
  }
  void publish(sim::Context&, ItemIdx, ItemId) override {}

  Rps& rps() { return rps_; }
  const View& rps_view() const { return rps_.view(); }
  const View& wup_view() const { return wup_.view(); }

 private:
  net::Descriptor self_descriptor(Cycle now) {
    return net::Descriptor{self_, snapshot_cache_.stamp(now, profile_)};
  }

  NodeId self_;
  Profile profile_;
  ProfileSnapshotCache snapshot_cache_;
  Rps rps_;
  gossip::ClusteringProtocol wup_;
};

// Seeds each agent's RPS view with `k` random peers (ring offset fallback
// keeps the bootstrap graph connected).
template <typename AgentT>
void bootstrap_ring(std::vector<AgentT*>& agents, std::size_t k) {
  const std::size_t n = agents.size();
  for (std::size_t v = 0; v < n; ++v) {
    std::vector<net::Descriptor> seed;
    for (std::size_t i = 1; i <= k && i < n; ++i) {
      seed.push_back(net::Descriptor{static_cast<NodeId>((v + i) % n), -1, nullptr});
    }
    agents[v]->rps().bootstrap(std::move(seed));
  }
}

}  // namespace whatsup::gossip::testing
