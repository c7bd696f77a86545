#include "baselines/cf_agent.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "whatsup_test_utils.hpp"

namespace whatsup::baselines {
namespace {

using whatsup::testing::CaptureAgent;
using whatsup::testing::FixedOpinions;

Params quiet_params() {
  Params p;
  p.rps_period = 1 << 20;
  p.wup_period = 1 << 20;
  return p;
}

net::Message news_to(NodeId from, NodeId to, ItemIdx index, Profile item_profile = {}) {
  net::Message m;
  m.from = from;
  m.to = to;
  m.type = net::MsgType::kNews;
  net::NewsPayload payload;
  payload.index = index;
  payload.id = 10000 + index;
  if (!item_profile.empty()) payload.item_profile = CompactProfile::encode(item_profile);
  m.payload = payload;
  return m;
}

struct CfFixture {
  CfFixture() : engine({21, {}, {}}) {
    for (int i = 0; i < 2; ++i) {
      auto sink = std::make_unique<CaptureAgent>();
      sinks.push_back(sink.get());
      engine.add_agent(std::move(sink));
    }
    auto agent = std::make_unique<CfAgent>(2, /*k=*/2, Metric::kWup, quiet_params(),
                                           opinions);
    node = agent.get();
    engine.add_agent(std::move(agent));
    // kNN view = both sinks (injected through the clustering bootstrap).
    node->bootstrap_rps({net::Descriptor{0, 0, nullptr}, net::Descriptor{1, 0, nullptr}});
  }
  sim::Engine engine;
  FixedOpinions opinions;
  std::vector<CaptureAgent*> sinks;
  CfAgent* node = nullptr;
};

TEST(CfAgent, LikedItemGoesToAllKNeighbors) {
  CfFixture fx;
  // Fill the kNN view by letting the node receive a WUP request carrying
  // candidates — simpler: publish, which forwards to the view; the view is
  // empty though. Use the knn bootstrap path instead: deliver a liked item
  // after seeding the view via clustering merge.
  // Directly exercise: seed knn view through a publish after manual merge.
  fx.opinions.like(2, 5);
  // Seed the clustering view through its public API: a WUP request from a
  // sink with an empty view makes the sink a candidate.
  net::Message wup_req;
  wup_req.from = 0;
  wup_req.to = 2;
  wup_req.type = net::MsgType::kWupRequest;
  net::ViewPayload vp;
  vp.sender = net::Descriptor{0, 5, nullptr};
  vp.view.push_back(net::Descriptor{1, 5, nullptr});
  wup_req.payload = vp;
  fx.engine.send(wup_req);
  fx.engine.run_cycles(3);
  ASSERT_EQ(fx.node->knn_view().size(), 2u);

  fx.engine.send(news_to(0, 2, 5));
  fx.engine.run_cycles(3);
  std::size_t delivered = 0;
  for (auto* sink : fx.sinks) {
    for (const auto& n : sink->news) delivered += n.index == 5 ? 1 : 0;
  }
  EXPECT_EQ(delivered, 2u);
}

TEST(CfAgent, DislikedItemNotForwarded) {
  CfFixture fx;  // dislikes everything
  fx.engine.send(news_to(0, 2, 5));
  fx.engine.run_cycles(3);
  for (auto* sink : fx.sinks) EXPECT_TRUE(sink->news.empty());
  // But the opinion is still recorded in the profile (drives clustering).
  EXPECT_EQ(fx.node->user_profile().score(10005).value(), 0.0);
}

TEST(CfAgent, ForwardedCopiesCarryNoItemProfile) {
  CfFixture fx;
  fx.opinions.like(2, 5);
  net::Message wup_req;
  wup_req.from = 0;
  wup_req.to = 2;
  wup_req.type = net::MsgType::kWupRequest;
  net::ViewPayload vp;
  vp.sender = net::Descriptor{0, 5, nullptr};
  wup_req.payload = vp;
  fx.engine.send(wup_req);
  fx.engine.run_cycles(3);

  Profile incoming_profile;
  incoming_profile.set(999, 0, 1.0);
  fx.engine.send(news_to(0, 2, 5, incoming_profile));
  fx.engine.run_cycles(3);
  for (auto* sink : fx.sinks) {
    for (const auto& n : sink->news) EXPECT_TRUE(n.item_profile == nullptr);
  }
}

TEST(CfAgent, DuplicatesDropped) {
  CfFixture fx;
  fx.opinions.like(2, 5);
  fx.engine.send(news_to(0, 2, 5));
  fx.engine.send(news_to(1, 2, 5));
  fx.engine.run_cycles(3);
  // The profile has exactly one entry for the item.
  EXPECT_EQ(fx.node->user_profile().size(), 1u);
}

TEST(CfAgent, PublishForwardsToNeighbors) {
  CfFixture fx;
  net::Message wup_req;
  wup_req.from = 0;
  wup_req.to = 2;
  wup_req.type = net::MsgType::kWupRequest;
  net::ViewPayload vp;
  vp.sender = net::Descriptor{0, 5, nullptr};
  wup_req.payload = vp;
  fx.engine.send(wup_req);
  fx.engine.run_cycles(3);
  fx.engine.publish(2, 9, 10009);
  fx.engine.run_cycles(3);
  std::size_t delivered = 0;
  for (auto* sink : fx.sinks) delivered += sink->news.size();
  EXPECT_GE(delivered, 1u);
  EXPECT_TRUE(fx.node->user_profile().contains(10009));
}

}  // namespace
}  // namespace whatsup::baselines
