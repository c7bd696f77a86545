#include "gossip/clustering_protocol.hpp"

namespace whatsup::gossip {

ClusteringProtocol::ClusteringProtocol(NodeId self, std::size_t view_size, Metric metric,
                                       Cycle period)
    : self_(self), view_(view_size), metric_(metric), period_(period) {}

void ClusteringProtocol::bootstrap(std::vector<net::Descriptor> seed) {
  for (net::Descriptor& d : seed) {
    if (d.node == self_) continue;
    view_.insert_or_refresh(std::move(d));
  }
}

net::ViewPayload ClusteringProtocol::make_payload(sim::Context& ctx,
                                                  const Profile& own_profile) const {
  net::ViewPayload payload;
  payload.sender = net::Descriptor{self_, snapshot_cache_.stamp(ctx.now(), own_profile)};
  payload.view = view_.entries();  // the ENTIRE view (§II)
  return payload;
}

void ClusteringProtocol::step(sim::Context& ctx, const Profile& own_profile,
                              const View& rps_view, const Profile* disclosed) {
  if (period_ > 1 && ctx.now() % period_ != 0) return;
  NodeId to = kNoNode;
  if (const net::Descriptor* oldest = view_.oldest(); oldest != nullptr) {
    to = oldest->node;
  } else {
    to = rps_view.random_member(ctx.rng());  // bootstrap out of an empty view
  }
  if (to == kNoNode) return;
  ctx.send(to, net::MsgType::kWupRequest,
           make_payload(ctx, disclosed != nullptr ? *disclosed : own_profile));
}

void ClusteringProtocol::on_request(sim::Context& ctx, const net::ViewPayload& payload,
                                    const Profile& own_profile, const View& rps_view,
                                    const Profile* disclosed) {
  ctx.send(payload.sender.node, net::MsgType::kWupReply,
           make_payload(ctx, disclosed != nullptr ? *disclosed : own_profile));
  merge(ctx, payload, own_profile, rps_view);
}

void ClusteringProtocol::on_reply(sim::Context& ctx, const net::ViewPayload& payload,
                                  const Profile& own_profile, const View& rps_view) {
  merge(ctx, payload, own_profile, rps_view);
}

void ClusteringProtocol::merge(sim::Context& ctx, const net::ViewPayload& payload,
                               const Profile& own_profile, const View& rps_view) {
  view_.merge_closest({payload.view, {&payload.sender, 1}, rps_view.entries()}, self_,
                      own_profile, metric_, ctx.rng());
}

double ClusteringProtocol::avg_similarity(const Profile& own_profile) const {
  if (view_.empty()) return 0.0;
  double total = 0.0;
  for (const net::Descriptor& d : view_.entries()) {
    total += similarity(metric_, own_profile, d.decoded_profile());
  }
  return total / static_cast<double>(view_.size());
}

}  // namespace whatsup::gossip
