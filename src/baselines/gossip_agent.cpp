#include "baselines/gossip_agent.hpp"

namespace whatsup::baselines {

GossipAgent::GossipAgent(NodeId self, int fanout, int rps_view_size, Cycle rps_period,
                         const sim::Opinions& opinions)
    : self_(self),
      fanout_(fanout),
      opinions_(&opinions),
      rps_(self, static_cast<std::size_t>(rps_view_size), rps_period) {}

void GossipAgent::bootstrap_rps(std::vector<net::Descriptor> seed) {
  rps_.bootstrap(std::move(seed));
}

void GossipAgent::on_cycle(sim::Context& ctx) { rps_.step(ctx, self_descriptor(ctx.now())); }

void GossipAgent::on_message(sim::Context& ctx, const net::Message& message) {
  switch (message.type) {
    case net::MsgType::kRpsRequest:
      rps_.on_request(ctx, message.view(), self_descriptor(ctx.now()));
      break;
    case net::MsgType::kRpsReply:
      rps_.on_reply(ctx, message.view());
      break;
    case net::MsgType::kNews: {
      net::NewsPayload news = message.news();
      if (!seen_.insert(news.id).second) return;
      const bool liked = opinions_->likes(self_, news.index);
      if (sim::DisseminationObserver* obs = ctx.observer(); obs != nullptr) {
        obs->on_delivery(self_, news.index, news.hops, false, 0);
        obs->on_opinion(self_, news.index, liked);
      }
      spread(ctx, std::move(news), liked);
      break;
    }
    default:
      break;  // no WUP layer in plain gossip
  }
}

void GossipAgent::publish(sim::Context& ctx, ItemIdx index, ItemId id) {
  if (!seen_.insert(id).second) return;
  net::NewsPayload news;
  news.id = id;
  news.index = index;
  news.created = ctx.now();
  news.origin = self_;
  spread(ctx, std::move(news), /*liked=*/true);
}

void GossipAgent::spread(sim::Context& ctx, net::NewsPayload news, bool liked) {
  // Infect-and-die: forward once to `fanout` random peers, opinion-blind.
  // Ids only — same sampling stream as random_subset, no descriptor copies.
  const auto targets =
      rps_.view().random_members(ctx.rng(), static_cast<std::size_t>(fanout_));
  if (sim::DisseminationObserver* obs = ctx.observer(); obs != nullptr) {
    obs->on_forward(self_, news.index, news.hops, liked, targets.size());
  }
  news.hops += 1;
  news.via_dislike = false;
  for (const NodeId target : targets) {
    ctx.send(target, net::MsgType::kNews, news);
  }
}

}  // namespace whatsup::baselines
