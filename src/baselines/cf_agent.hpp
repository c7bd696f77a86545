// Decentralized collaborative filtering baseline (§IV-B): nearest-neighbor
// CF over the same gossip substrate. The node maintains its k closest
// neighbors (CF-WUP with the WUP metric, CF-Cos with cosine); when it
// receives an item it LIKES it forwards it to all k of them. It takes no
// action on disliked items — no orientation, no amplification, no TTL.
#pragma once

#include <unordered_set>

#include "gossip/clustering_protocol.hpp"
#include "gossip/rps.hpp"
#include "profile/snapshot.hpp"
#include "sim/engine.hpp"
#include "sim/opinions.hpp"
#include "whatsup/params.hpp"

namespace whatsup::baselines {

class CfAgent : public sim::Agent {
 public:
  // `k` is both the clustering view size and the like-forward fanout.
  CfAgent(NodeId self, int k, Metric metric, const Params& params,
          const sim::Opinions& opinions);

  void on_cycle(sim::Context& ctx) override;
  void on_message(sim::Context& ctx, const net::Message& message) override;
  void publish(sim::Context& ctx, ItemIdx index, ItemId id) override;

  void bootstrap_rps(std::vector<net::Descriptor> seed);
  const gossip::View& rps_view() const { return rps_.view(); }
  const gossip::View& knn_view() const { return knn_.view(); }
  const Profile& user_profile() const { return profile_; }

 private:
  void handle_news(sim::Context& ctx, net::NewsPayload news);
  void forward_to_neighbors(sim::Context& ctx, net::NewsPayload news);
  // This node's own fresh descriptor at `now`, shipped by RPS and k-NN.
  net::Descriptor self_descriptor(Cycle now);

  NodeId self_;
  Params params_;
  const sim::Opinions* opinions_;
  Profile profile_;
  ProfileSnapshotCache snapshot_cache_;
  gossip::Rps rps_;
  gossip::ClusteringProtocol knn_;
  std::unordered_set<ItemId> seen_;
};

}  // namespace whatsup::baselines
