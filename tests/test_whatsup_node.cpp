#include "whatsup/node.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "obs/registry.hpp"
#include "whatsup_test_utils.hpp"

namespace whatsup {
namespace {

using testing::CaptureAgent;
using testing::FixedOpinions;

// Quiet parameters: gossip suppressed so only news messages flow.
WhatsUpConfig quiet_config(int f_like = 2) {
  WhatsUpConfig config;
  config.params.rps_period = 1 << 20;
  config.params.wup_period = 1 << 20;
  config.params.f_like = f_like;
  return config;
}

net::Message news_to(NodeId from, NodeId to, net::NewsPayload payload) {
  net::Message m;
  m.from = from;
  m.to = to;
  m.type = net::MsgType::kNews;
  m.payload = std::move(payload);
  return m;
}

struct NodeFixture {
  // Node 1 = WhatsUpAgent under test; node 0 = capture sink.
  explicit NodeFixture(WhatsUpConfig config = quiet_config()) : engine({123, {}, {}}) {
    auto sink_owner = std::make_unique<CaptureAgent>();
    sink = sink_owner.get();
    engine.add_agent(std::move(sink_owner));
    auto node_owner = std::make_unique<WhatsUpAgent>(1, config, opinions);
    node = node_owner.get();
    engine.add_agent(std::move(node_owner));
    // Both views point at the sink so every forward is observable.
    node->bootstrap_wup({net::Descriptor{0, 0, nullptr}});
    node->bootstrap_rps({net::Descriptor{0, 0, nullptr}});
  }

  void deliver(net::NewsPayload payload) {
    engine.send(news_to(2, 1, std::move(payload)));
    engine.run_cycles(3);  // deliver to node, then node's forward to sink
  }

  sim::Engine engine;
  FixedOpinions opinions;
  CaptureAgent* sink = nullptr;
  WhatsUpAgent* node = nullptr;
};

net::NewsPayload item(ItemIdx index, Cycle created = 0) {
  net::NewsPayload news;
  news.index = index;
  news.id = 10000 + index;
  news.created = created;
  return news;
}

TEST(WhatsUpNode, LikeRecordsOpinionKeyedByItemTimestamp) {
  NodeFixture fx;
  fx.opinions.like(1, 5);
  fx.deliver(item(5, /*created=*/7));
  const auto entry = fx.node->user_profile().find(10005);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->score, 1.0);
  EXPECT_EQ(entry->timestamp, 7);  // tI, not the delivery cycle (Alg. 1 line 5)
}

TEST(WhatsUpNode, DislikeRecordsZeroScore) {
  NodeFixture fx;
  fx.deliver(item(5));
  const auto entry = fx.node->user_profile().find(10005);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->score, 0.0);
}

TEST(WhatsUpNode, LikedItemForwardedToWupView) {
  NodeFixture fx;
  fx.opinions.like(1, 5);
  fx.deliver(item(5));
  ASSERT_EQ(fx.sink->news.size(), 1u);
  EXPECT_EQ(fx.sink->news[0].index, 5u);
  EXPECT_FALSE(fx.sink->news[0].via_dislike);
  EXPECT_EQ(fx.sink->news[0].hops, 1);
  EXPECT_EQ(fx.sink->news[0].dislikes, 0);
}

TEST(WhatsUpNode, LikeFoldsOwnProfileIntoItemProfile) {
  NodeFixture fx;
  fx.opinions.like(1, 1);
  fx.opinions.like(1, 2);
  fx.deliver(item(1));  // builds history: profile now has item 1
  fx.deliver(item(2));  // likes item 2 -> folds profile (item 1) into P^I
  ASSERT_EQ(fx.sink->news.size(), 2u);
  const Profile forwarded = fx.sink->news[1].item_profile.decode();
  EXPECT_TRUE(forwarded.contains(10001));  // prior like travels with the item
  EXPECT_EQ(forwarded.score(10001).value(), 1.0);
}

TEST(WhatsUpNode, FoldAveragesWithIncomingItemProfile) {
  NodeFixture fx;
  fx.opinions.like(1, 1);
  fx.opinions.like(1, 2);
  fx.deliver(item(1));  // profile: {10001 -> 1}
  net::NewsPayload incoming = item(2);
  Profile path;
  path.set(10001, 0, 0.0);  // path disagrees about item 1
  incoming.item_profile = CompactProfile::encode(path);
  fx.deliver(std::move(incoming));
  const Profile forwarded = fx.sink->news[1].item_profile.decode();
  EXPECT_EQ(forwarded.score(10001).value(), 0.5);  // (0 + 1) / 2
}

TEST(WhatsUpNode, DislikeDoesNotFoldProfile) {
  NodeFixture fx;
  fx.opinions.like(1, 1);
  fx.deliver(item(1));              // builds profile
  fx.deliver(item(2));              // disliked
  ASSERT_EQ(fx.sink->news.size(), 2u);
  const net::NewsPayload& fwd = fx.sink->news[1];
  EXPECT_TRUE(fwd.via_dislike);
  EXPECT_EQ(fwd.dislikes, 1);
  EXPECT_FALSE(fwd.item_profile.decode().contains(10001));  // profile NOT folded
}

TEST(WhatsUpNode, DislikedItemAtTtlIsDropped) {
  NodeFixture fx;
  net::NewsPayload incoming = item(3);
  incoming.dislikes = fx.node->config().params.beep_ttl;  // exhausted
  fx.deliver(std::move(incoming));
  EXPECT_TRUE(fx.sink->news.empty());
}

TEST(WhatsUpNode, DuplicateDeliveriesDropped) {
  NodeFixture fx;
  fx.opinions.like(1, 5);
  fx.deliver(item(5));
  fx.deliver(item(5));
  EXPECT_EQ(fx.sink->news.size(), 1u);  // forwarded exactly once (SIR)
}

TEST(WhatsUpNode, LikedFanoutUsesFLike) {
  // Three sinks, fLIKE=3: each receives the liked item once.
  sim::Engine engine({7, {}, {}});
  FixedOpinions opinions;
  std::vector<CaptureAgent*> sinks;
  for (int i = 0; i < 3; ++i) {
    auto sink = std::make_unique<CaptureAgent>();
    sinks.push_back(sink.get());
    engine.add_agent(std::move(sink));
  }
  auto node_owner = std::make_unique<WhatsUpAgent>(3, quiet_config(3), opinions);
  WhatsUpAgent* node = node_owner.get();
  engine.add_agent(std::move(node_owner));
  node->bootstrap_wup({net::Descriptor{0, 0, nullptr}, net::Descriptor{1, 0, nullptr},
                       net::Descriptor{2, 0, nullptr}});
  opinions.like(3, 9);
  engine.send(news_to(0, 3, item(9)));
  engine.run_cycles(3);
  for (auto* sink : sinks) EXPECT_EQ(sink->news.size(), 1u);
}

TEST(WhatsUpNode, PublishSeedsItemProfileFromOwnProfile) {
  NodeFixture fx;
  fx.opinions.like(1, 1);
  fx.deliver(item(1));  // profile: item 1 liked
  fx.engine.publish(1, 7, 10007);
  fx.engine.run_cycles(3);
  ASSERT_EQ(fx.sink->news.size(), 2u);
  const net::NewsPayload& published = fx.sink->news[1];
  EXPECT_EQ(published.index, 7u);
  EXPECT_EQ(published.origin, 1u);
  EXPECT_EQ(published.hops, 1);
  const Profile published_profile = published.item_profile.decode();
  EXPECT_TRUE(published_profile.contains(10007));  // the item itself
  EXPECT_TRUE(published_profile.contains(10001));  // prior history
}

TEST(WhatsUpNode, ProfileWindowPurgesOldEntries) {
  WhatsUpConfig config = quiet_config();
  config.params.profile_window = 5;
  NodeFixture fx(config);
  fx.opinions.like(1, 1);
  fx.deliver(item(1, /*created=*/0));
  EXPECT_TRUE(fx.node->user_profile().contains(10001));
  fx.engine.run_cycles(10);  // now ~12 cycles past creation
  EXPECT_FALSE(fx.node->user_profile().contains(10001));
}

TEST(WhatsUpNode, StaleItemProfileEntriesPurgedBeforeForward) {
  WhatsUpConfig config = quiet_config();
  config.params.profile_window = 5;
  NodeFixture fx(config);
  fx.engine.run_cycles(20);  // advance the clock well past the window
  fx.opinions.like(1, 4);
  net::NewsPayload incoming = item(4, /*created=*/20);
  Profile path;
  path.set(777, /*timestamp=*/0, 1.0);  // ancient entry
  incoming.item_profile = CompactProfile::encode(path);
  fx.deliver(std::move(incoming));
  ASSERT_EQ(fx.sink->news.size(), 1u);
  EXPECT_FALSE(fx.sink->news[0].item_profile.decode().contains(777));  // Alg. 1 lines 8-10
}

// Records the sender descriptor of every view request it receives, and
// never answers.
class RequestSink : public sim::Agent {
 public:
  void on_cycle(sim::Context&) override {}
  void on_message(sim::Context&, const net::Message& m) override {
    if (m.type == net::MsgType::kRpsRequest) rps.push_back(m.view().sender);
    if (m.type == net::MsgType::kWupRequest) wup.push_back(m.view().sender);
  }
  void publish(sim::Context&, ItemIdx, ItemId) override {}

  std::vector<net::Descriptor> rps;
  std::vector<net::Descriptor> wup;
};

TEST(WhatsUpNode, RpsAndWupRequestsOfOneCycleShareOneStampRecord) {
  // A node stamps its own descriptor once per cycle and hands the SAME
  // stamp record to its RPS and WUP layers. The disclosed profile it
  // carries is decided once, in the agent: the obfuscated snapshot when
  // obfuscation is on, the true profile otherwise.
  for (const bool obfuscate : {false, true}) {
    SCOPED_TRACE(obfuscate ? "obfuscated" : "plain");
    WhatsUpConfig config;
    config.params.rps_period = 1;
    config.params.wup_period = 1;
    if (obfuscate) {
      config.obfuscation.flip_prob = 0.5;
      config.obfuscation.drop_prob = 0.3;
    }
    FixedOpinions opinions;
    sim::Engine engine({123, {}, {}});
    auto sink_owner = std::make_unique<RequestSink>();
    RequestSink* sink = sink_owner.get();
    engine.add_agent(std::move(sink_owner));
    auto node_owner = std::make_unique<WhatsUpAgent>(1, config, opinions);
    WhatsUpAgent* node = node_owner.get();
    engine.add_agent(std::move(node_owner));
    node->bootstrap_rps({net::Descriptor{0, 0, nullptr}});
    node->bootstrap_wup({net::Descriptor{0, 0, nullptr}});
    // Give the node a profile worth obfuscating, then let it settle.
    for (ItemIdx i = 0; i < 12; ++i) {
      opinions.like(1, i);
      engine.send(news_to(2, 1, item(i, /*created=*/1)));
    }
    engine.run_cycles(4);

    // One more cycle, with no news in flight: one stamp record is made,
    // and both requests of that cycle carry it.
    const std::size_t stamps_before = SnapshotArena::instance().stats().stamps.live;
    const Cycle cycle = engine.now();
    engine.run_cycles(2);  // send, then deliver to the sink
    const auto sent_in = [cycle](const std::vector<net::Descriptor>& sent) {
      std::vector<const net::Descriptor*> out;
      for (const net::Descriptor& d : sent) {
        if (d.timestamp() == cycle) out.push_back(&d);
      }
      return out;
    };
    const auto rps = sent_in(sink->rps);
    const auto wup = sent_in(sink->wup);
    ASSERT_EQ(rps.size(), 1u);
    ASSERT_EQ(wup.size(), 1u);
    // The next cycle's stamp is held by the node's cache alone; this
    // cycle's by the two captured requests.
    EXPECT_EQ(SnapshotArena::instance().stats().stamps.live, stamps_before + 2);
    EXPECT_EQ(rps[0]->snapshot(), wup[0]->snapshot());

    const Profile& truth = node->user_profile();
    ASSERT_EQ(truth.size(), 12u);
    const Profile disclosed = rps[0]->decoded_profile();
    if (obfuscate) {
      EXPECT_EQ(disclosed, obfuscate_profile(truth, config.obfuscation, 1, cycle));
      EXPECT_NE(disclosed, truth);
    } else {
      EXPECT_EQ(disclosed, truth);
    }
  }
}

// A cycle in which neither gossip step sends stamps no self descriptor:
// a node whose views are both empty (a recovering node) stays silent and
// makes no stamp record, and once it has a peer, one stamp serves both of
// the cycle's requests.
TEST(WhatsUpNode, SilentCycleStampsNoDescriptor) {
  const auto stamp_creates = [] {
    for (const obs::MetricValue& m : obs::Registry::instance().merge()) {
      if (m.name == "arena.stamp.creates") return m.value;
    }
    return std::uint64_t{0};
  };
  obs::Registry::instance().reset();
  obs::set_enabled(true);
  {
    WhatsUpConfig config;
    config.params.rps_period = 1;
    config.params.wup_period = 1;
    FixedOpinions opinions;
    sim::Engine engine({123, {}, {}});
    auto node_owner = std::make_unique<WhatsUpAgent>(0, config, opinions);
    WhatsUpAgent* node = node_owner.get();
    engine.add_agent(std::move(node_owner));
    engine.add_agent(std::make_unique<RequestSink>());
    engine.run_cycles(3);
    EXPECT_EQ(stamp_creates(), 0u);
    node->bootstrap_rps({net::Descriptor{1, 0, nullptr}});
    engine.run_cycles(1);
    EXPECT_EQ(stamp_creates(), 1u);
  }
  obs::set_enabled(false);
}

}  // namespace
}  // namespace whatsup
