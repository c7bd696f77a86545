#include "gossip/rps.hpp"

namespace whatsup::gossip {

Rps::Rps(NodeId self, std::size_t view_size, Cycle period)
    : self_(self), view_(view_size), period_(period) {}

void Rps::bootstrap(std::vector<net::Descriptor> seed) {
  for (net::Descriptor& d : seed) {
    if (d.node == self_) continue;
    view_.insert_or_refresh(std::move(d));
  }
}

net::ViewPayload Rps::make_payload(sim::Context& ctx, const net::Descriptor& self) {
  net::ViewPayload payload;
  payload.sender = self;
  // Half of the view, as is typical for peer-sampling exchanges (§II).
  payload.view = view_.random_subset(ctx.rng(), (view_.size() + 1) / 2);
  return payload;
}

bool Rps::will_send(Cycle now) const {
  return (period_ <= 1 || now % period_ == 0) && !view_.empty();
}

void Rps::step(sim::Context& ctx, const net::Descriptor& self) {
  if (!will_send(ctx.now())) return;
  const NodeId to = view_.oldest()->node;
  ctx.send(to, net::MsgType::kRpsRequest, make_payload(ctx, self));
}

void Rps::on_request(sim::Context& ctx, const net::ViewPayload& payload,
                     const net::Descriptor& self) {
  ctx.send(payload.sender.node, net::MsgType::kRpsReply, make_payload(ctx, self));
  merge(ctx, payload);
}

void Rps::on_reply(sim::Context& ctx, const net::ViewPayload& payload) {
  merge(ctx, payload);
}

void Rps::merge(sim::Context& ctx, const net::ViewPayload& payload) {
  view_.merge_random({payload.view, {&payload.sender, 1}}, self_, ctx.rng());
}

}  // namespace whatsup::gossip
