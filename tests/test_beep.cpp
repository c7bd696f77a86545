#include "beep/beep.hpp"

#include <gtest/gtest.h>

#include <set>

namespace whatsup::beep {
namespace {

Profile liked(std::initializer_list<ItemId> ids,
              std::initializer_list<ItemId> disliked = {}) {
  Profile p;
  for (ItemId id : ids) p.set(id, 0, 1.0);
  for (ItemId id : disliked) p.set(id, 0, 0.0);
  return p;
}

gossip::View make_view(std::initializer_list<NodeId> nodes, std::size_t capacity = 32) {
  gossip::View view(capacity);
  for (NodeId v : nodes) view.insert_or_refresh(net::Descriptor{v, 0, nullptr});
  return view;
}

TEST(Beep, LikedItemAmplifiedToFanoutWupTargets) {
  Rng rng(1);
  BeepConfig config;
  config.f_like = 3;
  net::NewsPayload news;
  const auto wup = make_view({1, 2, 3, 4, 5});
  const auto rps = make_view({6, 7});
  const ForwardPlan plan = plan_forward(rng, config, true, news, wup, rps);
  EXPECT_EQ(plan.targets.size(), 3u);
  const std::set<NodeId> targets(plan.targets.begin(), plan.targets.end());
  EXPECT_EQ(targets.size(), 3u);  // distinct
  for (NodeId t : targets) EXPECT_TRUE(t >= 1 && t <= 5);  // WUP members only
  EXPECT_EQ(news.dislikes, 0);
  EXPECT_FALSE(plan.dropped_by_ttl);
}

TEST(Beep, LikedFanoutClampedToViewSize) {
  Rng rng(2);
  BeepConfig config;
  config.f_like = 10;
  net::NewsPayload news;
  const auto wup = make_view({1, 2});
  const ForwardPlan plan = plan_forward(rng, config, true, news, wup, make_view({}));
  EXPECT_EQ(plan.targets.size(), 2u);
}

TEST(Beep, DislikedItemGetsOneOrientedTarget) {
  Rng rng(3);
  BeepConfig config;
  config.ttl = 4;
  net::NewsPayload news;
  news.item_profile = CompactProfile::encode(liked({100, 101}));

  gossip::View rps(8);
  rps.insert_or_refresh(net::make_descriptor(1, 0, liked({100, 101})));  // best match
  rps.insert_or_refresh(net::make_descriptor(2, 0, liked({100}, {101})));
  rps.insert_or_refresh(net::make_descriptor(3, 0, liked({555})));

  const ForwardPlan plan =
      plan_forward(rng, config, false, news, make_view({7, 8}), rps);
  ASSERT_EQ(plan.targets.size(), 1u);
  EXPECT_EQ(plan.targets[0], 1u);  // orientation picks the closest profile
  EXPECT_EQ(news.dislikes, 1);     // counter incremented (Alg. 2 line 26)
}

TEST(Beep, TtlDropsExhaustedItems) {
  Rng rng(4);
  BeepConfig config;
  config.ttl = 4;
  net::NewsPayload news;
  news.dislikes = 4;  // already at TTL
  const ForwardPlan plan =
      plan_forward(rng, config, false, news, make_view({1}), make_view({2}));
  EXPECT_TRUE(plan.targets.empty());
  EXPECT_TRUE(plan.dropped_by_ttl);
  EXPECT_EQ(news.dislikes, 4);  // unchanged
}

TEST(Beep, TtlZeroNeverForwardsDislikes) {
  Rng rng(5);
  BeepConfig config;
  config.ttl = 0;
  net::NewsPayload news;
  const ForwardPlan plan =
      plan_forward(rng, config, false, news, make_view({1}), make_view({2}));
  EXPECT_TRUE(plan.targets.empty());
  EXPECT_TRUE(plan.dropped_by_ttl);
}

TEST(Beep, AmplificationOffReducesLikedFanoutToOne) {
  Rng rng(6);
  BeepConfig config;
  config.f_like = 8;
  config.amplification = false;
  net::NewsPayload news;
  const ForwardPlan plan =
      plan_forward(rng, config, true, news, make_view({1, 2, 3, 4, 5}), make_view({}));
  EXPECT_EQ(plan.targets.size(), 1u);
}

TEST(Beep, OrientationOffPicksRandomRpsTarget) {
  BeepConfig config;
  config.orientation = false;
  // With orientation off, the target need not be the most similar node;
  // over many seeds we should see several distinct targets.
  std::set<NodeId> picked;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    Rng rng(seed);
    net::NewsPayload news;
    news.item_profile = CompactProfile::encode(liked({100}));
    gossip::View rps(8);
    rps.insert_or_refresh(net::make_descriptor(1, 0, liked({100})));
    rps.insert_or_refresh(net::make_descriptor(2, 0, liked({200})));
    rps.insert_or_refresh(net::make_descriptor(3, 0, liked({300})));
    const auto plan = plan_forward(rng, config, false, news, make_view({}), rps);
    ASSERT_EQ(plan.targets.size(), 1u);
    picked.insert(plan.targets[0]);
  }
  EXPECT_GT(picked.size(), 1u);
}

TEST(Beep, EmptyViewsYieldNoTargets) {
  Rng rng(7);
  BeepConfig config;
  net::NewsPayload news;
  EXPECT_TRUE(plan_forward(rng, config, true, news, make_view({}), make_view({})).targets.empty());
  EXPECT_TRUE(plan_forward(rng, config, false, news, make_view({}), make_view({})).targets.empty());
}

TEST(SelectMostSimilar, EmptyViewReturnsNoNode) {
  Rng rng(8);
  EXPECT_EQ(select_most_similar(gossip::View(4), nullptr, Metric::kWup, rng), kNoNode);
}

TEST(SelectMostSimilar, TieBreaksUniformly) {
  const CompactProfile* item = nullptr;  // empty item profile: every candidate ties at 0
  gossip::View rps(8);
  for (NodeId v = 1; v <= 4; ++v) rps.insert_or_refresh(net::Descriptor{v, 0, nullptr});
  std::set<NodeId> picked;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed);
    picked.insert(select_most_similar(rps, item, Metric::kWup, rng));
  }
  EXPECT_GE(picked.size(), 3u);
}

// Regression: with orientation ON and f_dislike > 1, every loop iteration
// used to re-run select_most_similar over the same view, re-pick the same
// best node, and have the duplicate filter discard it — so the plan could
// never hold more than ONE distinct oriented target. Already-chosen nodes
// must be excluded between iterations.
TEST(Beep, OrientedDislikeFanoutPicksDistinctTargets) {
  Rng rng(10);
  BeepConfig config;
  config.f_dislike = 3;
  config.ttl = 4;
  net::NewsPayload news;
  news.item_profile = CompactProfile::encode(liked({100, 101}));

  // WUP scores against the item profile: 1 → 1.0 (exact match),
  // 2 → 1/√2 (one extra item inflates ‖b‖), 3 → 1/√3, 4 → 0 (disjoint);
  // strictly ordered, so the plan sequence is deterministic.
  gossip::View rps(8);
  rps.insert_or_refresh(net::make_descriptor(1, 0, liked({100, 101})));
  rps.insert_or_refresh(net::make_descriptor(2, 0, liked({100, 200})));
  rps.insert_or_refresh(net::make_descriptor(3, 0, liked({101, 300, 301})));
  rps.insert_or_refresh(net::make_descriptor(4, 0, liked({555})));

  const ForwardPlan plan =
      plan_forward(rng, config, false, news, make_view({7, 8}), rps);
  ASSERT_EQ(plan.targets.size(), 3u);
  // Best match first, then the next-closest nodes, never the disjoint one.
  EXPECT_EQ(plan.targets, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(news.dislikes, 1);  // still one TTL increment per hop
}

// The exclusion must also terminate cleanly when f_dislike exceeds the
// view: every member gets picked once, then select returns kNoNode.
TEST(Beep, OrientedDislikeFanoutClampedToViewSize) {
  Rng rng(11);
  BeepConfig config;
  config.f_dislike = 5;
  net::NewsPayload news;
  news.item_profile = CompactProfile::encode(liked({100}));
  gossip::View rps(8);
  rps.insert_or_refresh(net::make_descriptor(1, 0, liked({100})));
  rps.insert_or_refresh(net::make_descriptor(2, 0, liked({200})));
  const ForwardPlan plan =
      plan_forward(rng, config, false, news, make_view({}), rps);
  EXPECT_EQ(plan.targets.size(), 2u);
}

TEST(SelectMostSimilar, ExcludedNodesAreSkipped) {
  Rng rng(12);
  const ProfileHandle item = CompactProfile::encode(liked({100}));
  gossip::View rps(8);
  rps.insert_or_refresh(net::make_descriptor(1, 0, liked({100})));
  rps.insert_or_refresh(net::make_descriptor(2, 0, liked({100, 200})));
  const NodeId first = select_most_similar(rps, item.record(), Metric::kWup, rng);
  EXPECT_EQ(first, 1u);
  const std::vector<NodeId> excluded{first};
  EXPECT_EQ(select_most_similar(rps, item.record(), Metric::kWup, rng, excluded), 2u);
  const std::vector<NodeId> all{1, 2};
  EXPECT_EQ(select_most_similar(rps, item.record(), Metric::kWup, rng, all), kNoNode);
}

TEST(Beep, DislikeFanoutParameterHonored) {
  Rng rng(9);
  BeepConfig config;
  config.f_dislike = 2;
  config.orientation = false;
  net::NewsPayload news;
  const auto plan =
      plan_forward(rng, config, false, news, make_view({}), make_view({1, 2, 3, 4}));
  // Up to 2 distinct random targets.
  EXPECT_GE(plan.targets.size(), 1u);
  EXPECT_LE(plan.targets.size(), 2u);
}

}  // namespace
}  // namespace whatsup::beep
