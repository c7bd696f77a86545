#include "gossip/rps.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "protocol_test_utils.hpp"

namespace whatsup::gossip {
namespace {

using testing::RpsOnlyAgent;
using testing::bootstrap_ring;

struct RpsFixture {
  explicit RpsFixture(std::size_t n, std::size_t view_size, std::uint64_t seed = 1)
      : engine(sim::Engine::Config{seed, {}, {}}) {
    for (std::size_t v = 0; v < n; ++v) {
      auto agent = std::make_unique<RpsOnlyAgent>(static_cast<NodeId>(v), view_size);
      agents.push_back(agent.get());
      engine.add_agent(std::move(agent));
    }
    bootstrap_ring(agents, 3);
  }
  sim::Engine engine;
  std::vector<RpsOnlyAgent*> agents;
};

TEST(Rps, ViewsFillToCapacity) {
  RpsFixture fx(60, 8);
  fx.engine.run_cycles(15);
  for (auto* agent : fx.agents) {
    EXPECT_EQ(agent->view().size(), 8u);
  }
}

TEST(Rps, ViewsNeverContainSelf) {
  RpsFixture fx(40, 6);
  fx.engine.run_cycles(20);
  for (NodeId v = 0; v < fx.agents.size(); ++v) {
    EXPECT_FALSE(fx.agents[v]->view().contains(v)) << "node " << v;
  }
}

TEST(Rps, DescriptorsGetFresher) {
  RpsFixture fx(40, 6);
  fx.engine.run_cycles(30);
  // After 30 cycles of gossip, no view should still hold a bootstrap-aged
  // (timestamp -1) descriptor... at least not many.
  std::size_t stale = 0, total = 0;
  for (auto* agent : fx.agents) {
    for (const auto& d : agent->view().entries()) {
      ++total;
      if (d.timestamp() < 10) ++stale;
    }
  }
  EXPECT_LT(static_cast<double>(stale) / static_cast<double>(total), 0.2);
}

TEST(Rps, OverlayMixesBeyondTheBootstrapRing) {
  RpsFixture fx(60, 8);
  fx.engine.run_cycles(25);
  // Bootstrap neighbors were ring offsets 1..3; after mixing, views should
  // mostly contain non-ring nodes.
  std::size_t ring_edges = 0, total = 0;
  for (NodeId v = 0; v < fx.agents.size(); ++v) {
    for (const auto& d : fx.agents[v]->view().entries()) {
      ++total;
      const auto diff = (d.node + fx.agents.size() - v) % fx.agents.size();
      if (diff >= 1 && diff <= 3) ++ring_edges;
    }
  }
  EXPECT_LT(static_cast<double>(ring_edges) / static_cast<double>(total), 0.4);
}

TEST(Rps, InDegreeReasonablyBalanced) {
  RpsFixture fx(80, 8);
  fx.engine.run_cycles(30);
  std::vector<std::size_t> indegree(fx.agents.size(), 0);
  for (auto* agent : fx.agents) {
    for (const auto& d : agent->view().entries()) ++indegree[d.node];
  }
  // Mean in-degree is 8; no node should be absent from the overlay and no
  // node should dominate it (random peer sampling balances in-degrees).
  std::size_t max_in = 0, zero = 0;
  for (std::size_t deg : indegree) {
    max_in = std::max(max_in, deg);
    zero += deg == 0;
  }
  // A node may transiently drop out of every view, but not many at once.
  EXPECT_LE(zero, 2u);
  EXPECT_LE(max_in, 8u * 4);
}

TEST(Rps, ViewsKeepChanging) {
  RpsFixture fx(60, 8);
  fx.engine.run_cycles(10);
  std::vector<std::set<NodeId>> before;
  for (auto* agent : fx.agents) {
    const auto members = agent->view().members();
    before.emplace_back(members.begin(), members.end());
  }
  fx.engine.run_cycles(10);
  std::size_t changed = 0;
  for (std::size_t v = 0; v < fx.agents.size(); ++v) {
    const auto members = fx.agents[v]->view().members();
    const std::set<NodeId> after(members.begin(), members.end());
    if (after != before[v]) ++changed;
  }
  // The random overlay is continuously reshuffled (§II).
  EXPECT_GT(changed, fx.agents.size() / 2);
}

TEST(Rps, PeriodThrottlesGossip) {
  // Same deployment, RPS period 1 vs 3: the slower period sends ~1/3 the
  // requests (RPSf in Table II is a frequency knob).
  auto count_requests = [](Cycle period) {
    sim::Engine engine(sim::Engine::Config{7, {}, {}});
    class PeriodicAgent : public sim::Agent {
     public:
      PeriodicAgent(NodeId self, Cycle period) : self_(self), rps_(self, 4, period) {}
      net::Descriptor self_descriptor(Cycle now) const {
        return net::Descriptor{self_, now, empty_profile_handle()};
      }
      void on_cycle(sim::Context& ctx) override { rps_.step(ctx, self_descriptor(ctx.now())); }
      void on_message(sim::Context& ctx, const net::Message& m) override {
        if (m.type == net::MsgType::kRpsRequest) {
          rps_.on_request(ctx, m.view(), self_descriptor(ctx.now()));
        }
        if (m.type == net::MsgType::kRpsReply) rps_.on_reply(ctx, m.view());
      }
      void publish(sim::Context&, ItemIdx, ItemId) override {}
      NodeId self_;
      Rps rps_;
    };
    std::vector<PeriodicAgent*> agents;
    for (NodeId v = 0; v < 6; ++v) {
      auto agent = std::make_unique<PeriodicAgent>(v, period);
      agents.push_back(agent.get());
      engine.add_agent(std::move(agent));
    }
    for (std::size_t v = 0; v < agents.size(); ++v) {
      agents[v]->rps_.bootstrap(
          {net::Descriptor{static_cast<NodeId>((v + 1) % 6), -1, nullptr}});
    }
    engine.run_cycles(12);
    return engine.traffic().messages(net::Protocol::kRps);
  };
  const auto fast = count_requests(1);
  const auto slow = count_requests(3);
  EXPECT_GT(fast, 2 * slow);
}

TEST(Rps, BootstrapIgnoresSelf) {
  Rps rps(5, 10, 1);
  rps.bootstrap({net::Descriptor{5, 0, nullptr}, net::Descriptor{6, 0, nullptr}});
  EXPECT_EQ(rps.view().size(), 1u);
  EXPECT_FALSE(rps.view().contains(5));
}

}  // namespace
}  // namespace whatsup::gossip
