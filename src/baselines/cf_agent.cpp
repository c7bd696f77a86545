#include "baselines/cf_agent.hpp"

namespace whatsup::baselines {

CfAgent::CfAgent(NodeId self, int k, Metric metric, const Params& params,
                 const sim::Opinions& opinions)
    : self_(self),
      params_(params),
      opinions_(&opinions),
      rps_(self, static_cast<std::size_t>(params.rps_view_size), params.rps_period),
      knn_(self, static_cast<std::size_t>(k), metric, params.wup_period) {}

void CfAgent::bootstrap_rps(std::vector<net::Descriptor> seed) {
  rps_.bootstrap(std::move(seed));
}

net::Descriptor CfAgent::self_descriptor(Cycle now) {
  return net::Descriptor{self_, snapshot_cache_.stamp(now, profile_)};
}

void CfAgent::on_cycle(sim::Context& ctx) {
  profile_.purge_older_than(ctx.now() - params_.profile_window);
  const net::Descriptor self = self_descriptor(ctx.now());
  rps_.step(ctx, self);
  knn_.step(ctx, self, rps_.view());
}

void CfAgent::on_message(sim::Context& ctx, const net::Message& message) {
  switch (message.type) {
    case net::MsgType::kRpsRequest:
      rps_.on_request(ctx, message.view(), self_descriptor(ctx.now()));
      break;
    case net::MsgType::kRpsReply:
      rps_.on_reply(ctx, message.view());
      break;
    case net::MsgType::kWupRequest:
      knn_.on_request(ctx, message.view(), self_descriptor(ctx.now()), profile_,
                      rps_.view());
      break;
    case net::MsgType::kWupReply:
      knn_.on_reply(ctx, message.view(), profile_, rps_.view());
      break;
    case net::MsgType::kNews:
      handle_news(ctx, message.news());
      break;
    default:
      break;  // reliability-layer control traffic; CF runs without it
  }
}

void CfAgent::handle_news(sim::Context& ctx, net::NewsPayload news) {
  if (!seen_.insert(news.id).second) return;
  const bool liked = opinions_->likes(self_, news.index);
  if (sim::DisseminationObserver* obs = ctx.observer(); obs != nullptr) {
    obs->on_delivery(self_, news.index, news.hops, false, 0);
    obs->on_opinion(self_, news.index, liked);
  }
  profile_.set(news.id, news.created, liked ? 1.0 : 0.0);
  if (!liked) {
    // CF takes no action on disliked items (§IV-B).
    if (sim::DisseminationObserver* obs = ctx.observer(); obs != nullptr) {
      obs->on_forward(self_, news.index, news.hops, false, 0);
    }
    return;
  }
  forward_to_neighbors(ctx, std::move(news));
}

void CfAgent::forward_to_neighbors(sim::Context& ctx, net::NewsPayload news) {
  // Forward to ALL k nearest neighbors (the clustering view).
  const auto targets = knn_.view().members();
  if (sim::DisseminationObserver* obs = ctx.observer(); obs != nullptr) {
    obs->on_forward(self_, news.index, news.hops, true, targets.size());
  }
  news.hops += 1;
  news.via_dislike = false;
  // CF messages do not carry item profiles (no orientation mechanism).
  news.item_profile = nullptr;
  for (NodeId target : targets) {
    ctx.send(target, net::MsgType::kNews, news);
  }
}

void CfAgent::publish(sim::Context& ctx, ItemIdx index, ItemId id) {
  if (!seen_.insert(id).second) return;
  profile_.set(id, ctx.now(), 1.0);
  net::NewsPayload news;
  news.id = id;
  news.index = index;
  news.created = ctx.now();
  news.origin = self_;
  forward_to_neighbors(ctx, std::move(news));
}

}  // namespace whatsup::baselines
