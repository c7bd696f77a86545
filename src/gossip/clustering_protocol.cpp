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

net::ViewPayload ClusteringProtocol::make_payload(const net::Descriptor& self) const {
  net::ViewPayload payload;
  payload.sender = self;
  payload.view = view_.entries();  // the ENTIRE view (§II)
  return payload;
}

bool ClusteringProtocol::will_send(Cycle now, const View& rps_view) const {
  return (period_ <= 1 || now % period_ == 0) && !(view_.empty() && rps_view.empty());
}

void ClusteringProtocol::step(sim::Context& ctx, const net::Descriptor& self,
                              const View& rps_view) {
  if (!will_send(ctx.now(), rps_view)) return;
  const net::Descriptor* oldest = view_.oldest();
  // An empty view bootstraps out of the RPS view.
  const NodeId to = oldest != nullptr ? oldest->node : rps_view.random_member(ctx.rng());
  ctx.send(to, net::MsgType::kWupRequest, make_payload(self));
}

void ClusteringProtocol::on_request(sim::Context& ctx, const net::ViewPayload& payload,
                                    const net::Descriptor& self, const Profile& own_profile,
                                    const View& rps_view) {
  ctx.send(payload.sender.node, net::MsgType::kWupReply, make_payload(self));
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
