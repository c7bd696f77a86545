// Reliability layer: retransmit-queue unit semantics
// (backoff schedule, retry exhaustion, ack loss, overflow), engine-level
// crash/recovery, Gilbert–Elliott bursty loss, view hygiene, and the
// headline robustness claim — under ~20% bursty loss, enabling the
// ack/retransmit layer strictly improves recall over fire-and-forget BEEP.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "analysis/runner.hpp"
#include "dataset/survey.hpp"
#include "gossip/hygiene.hpp"
#include "sim/engine.hpp"
#include "sim/reliability.hpp"
#include "whatsup/node.hpp"

namespace whatsup {
namespace {

// ---- RetransmitQueue ------------------------------------------------------

net::NewsPayload news_of(ItemId id) {
  net::NewsPayload news;
  news.id = id;
  news.index = static_cast<ItemIdx>(id);
  return news;
}

sim::ReliabilityConfig fast_config() {
  sim::ReliabilityConfig config;
  config.enabled = true;
  config.ack_timeout = 2;
  config.backoff = 2.0;
  config.max_timeout = 8;
  config.max_retries = 2;
  return config;
}

TEST(RetransmitQueue, AckClearsPendingEntry) {
  sim::RetransmitQueue queue(fast_config());
  queue.track(0, 5, news_of(77));
  EXPECT_EQ(queue.pending(), 1u);
  EXPECT_TRUE(queue.ack(5, 77));
  EXPECT_EQ(queue.pending(), 0u);
  EXPECT_EQ(queue.stats().acked, 1u);
  // Late ack of an already-cleared entry is a no-op, not an error.
  EXPECT_FALSE(queue.ack(5, 77));
}

TEST(RetransmitQueue, BackoffDoublesUpToCapAndRetriesExhaust) {
  sim::RetransmitQueue queue(fast_config());
  Rng rng = Rng(1).fork(2);  // jitter stream; any fixed stream works
  queue.track(0, 9, news_of(42));
  std::vector<NodeId> expired;

  // Nothing due before the first timeout.
  EXPECT_TRUE(queue.collect_due(1, rng, &expired).empty());
  // First timeout at cycle 2: one resend, timeout backs off to 4.
  auto due = queue.collect_due(2, rng, &expired);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].to, 9u);
  EXPECT_EQ(due[0].news.id, 42u);
  // Second resend comes 4 (+jitter 0..1) cycles later, not before.
  EXPECT_TRUE(queue.collect_due(4, rng, &expired).empty());
  due = queue.collect_due(7, rng, &expired);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(queue.stats().retransmits, 2u);
  // Retries exhausted: the next due surfaces the target and drops the
  // entry instead of resending again.
  EXPECT_TRUE(expired.empty());
  due = queue.collect_due(40, rng, &expired);
  EXPECT_TRUE(due.empty());
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], 9u);
  EXPECT_EQ(queue.pending(), 0u);
  EXPECT_EQ(queue.stats().expired, 1u);
}

TEST(RetransmitQueue, LostAckIsRecoveredByLaterAck) {
  // The receiver acks every receipt, so even if the first ack is lost the
  // retransmission provokes a second one — which must still clear the
  // (by then backed-off) entry.
  sim::RetransmitQueue queue(fast_config());
  Rng rng = Rng(3).fork(7);
  queue.track(0, 4, news_of(11));
  ASSERT_EQ(queue.collect_due(2, rng, nullptr).size(), 1u);  // resend
  EXPECT_TRUE(queue.ack(4, 11));  // ack of the retransmitted copy
  EXPECT_EQ(queue.pending(), 0u);
  EXPECT_TRUE(queue.collect_due(40, rng, nullptr).empty());
  EXPECT_EQ(queue.stats().expired, 0u);
}

TEST(RetransmitQueue, QueueLimitEvictsOldestAndDropTargetPurges) {
  sim::ReliabilityConfig config = fast_config();
  config.queue_limit = 2;
  sim::RetransmitQueue queue(config);
  queue.track(0, 1, news_of(1));
  queue.track(0, 2, news_of(2));
  queue.track(0, 3, news_of(3));  // evicts the (1, 1) entry
  EXPECT_EQ(queue.pending(), 2u);
  EXPECT_EQ(queue.stats().overflowed, 1u);
  EXPECT_FALSE(queue.ack(1, 1));
  EXPECT_EQ(queue.drop_target(2), 1u);
  EXPECT_EQ(queue.pending(), 1u);
}

// ---- ViewHygiene ----------------------------------------------------------

net::Descriptor bare(NodeId node, Cycle ts) { return net::Descriptor{node, ts, nullptr}; }

TEST(ViewHygiene, SuspicionCrossesLimitUnlessAbsolved) {
  gossip::ViewHygiene hygiene({.max_age = 0, .suspicion_limit = 3});
  EXPECT_FALSE(hygiene.report_failure(7));
  EXPECT_FALSE(hygiene.report_failure(7));
  hygiene.absolve(7);  // evidence of life resets the count
  EXPECT_FALSE(hygiene.report_failure(7));
  EXPECT_FALSE(hygiene.report_failure(7));
  EXPECT_TRUE(hygiene.report_failure(7));
  // Eviction clears the counter: a re-discovered peer starts clean.
  EXPECT_EQ(hygiene.suspicion(7), 0);
}

TEST(ViewHygiene, EvictStaleKeepsFreshestEntry) {
  gossip::ViewHygiene hygiene({.max_age = 5, .suspicion_limit = 0});
  gossip::View view(8);
  view.insert_or_refresh(bare(1, 0));
  view.insert_or_refresh(bare(2, 3));
  view.insert_or_refresh(bare(3, 10));
  EXPECT_EQ(hygiene.evict_stale(view, 20), 2u);  // cutoff 15: all stale…
  EXPECT_EQ(view.size(), 1u);                    // …but the freshest survives
  EXPECT_TRUE(view.contains(3));
  // No-op when everything is fresh enough.
  EXPECT_EQ(hygiene.evict_stale(view, 12), 0u);
}

// ---- Engine crash / recovery ----------------------------------------------

struct RecoverProbe : sim::Agent {
  int recoveries = 0;
  int received = 0;
  void on_cycle(sim::Context&) override {}
  void on_message(sim::Context&, const net::Message&) override { ++received; }
  void publish(sim::Context&, ItemIdx, ItemId) override {}
  void on_recover(sim::Context&) override { ++recoveries; }
};

net::Message news_message(NodeId from, NodeId to) {
  net::Message message;
  message.from = from;
  message.to = to;
  message.type = net::MsgType::kNews;
  message.payload = net::NewsPayload{};
  return message;
}

TEST(EngineCrash, CrashRecoverInvokesHookAndChurnDoesNot) {
  sim::Engine engine(sim::Engine::Config{.seed = 5});
  std::vector<RecoverProbe*> probes;
  for (int i = 0; i < 4; ++i) {
    auto probe = std::make_unique<RecoverProbe>();
    probes.push_back(probe.get());
    engine.add_agent(std::move(probe));
  }
  // Crash with scheduled recovery: inactive + crashed until the cycle
  // arrives, then reactivated through on_recover.
  engine.crash(1, /*recover_at=*/2);
  EXPECT_FALSE(engine.is_active(1));
  EXPECT_TRUE(engine.is_crashed(1));
  engine.run_cycle();  // cycle 0
  engine.run_cycle();  // cycle 1
  EXPECT_TRUE(engine.is_crashed(1));
  engine.run_cycle();  // cycle 2: recovery fires at the cycle start
  EXPECT_TRUE(engine.is_active(1));
  EXPECT_FALSE(engine.is_crashed(1));
  EXPECT_EQ(probes[1]->recoveries, 1);
  // Crash-stop: no recovery ever fires.
  engine.crash(2);
  engine.run_cycle();
  EXPECT_TRUE(engine.is_crashed(2));
  EXPECT_EQ(probes[2]->recoveries, 0);
  // Churn-style reactivation clears the crash flag WITHOUT the hook.
  engine.set_active(2, true);
  EXPECT_FALSE(engine.is_crashed(2));
  EXPECT_EQ(probes[2]->recoveries, 0);
  // In-flight messages to a crashed node are lost, not queued.
  engine.crash(3);
  engine.send(news_message(0, 3));
  engine.run_cycle();
  engine.run_cycle();
  EXPECT_EQ(probes[3]->received, 0);
}

// ---- Gilbert–Elliott bursty loss ------------------------------------------

struct CountingAgent : sim::Agent {
  int received = 0;
  void on_cycle(sim::Context&) override {}
  void on_message(sim::Context&, const net::Message&) override { ++received; }
  void publish(sim::Context&, ItemIdx, ItemId) override {}
};

TEST(BurstLoss, BadStateDropsAndChainIsDeterministic) {
  // p_enter = 1 forces every link into the bad state from cycle 1 on;
  // loss_bad = 1 then drops everything, while cycle-0 sends (chains start
  // in the good state with loss_good = 0) get through.
  const auto run = [](std::uint64_t seed) {
    net::NetworkConfig network;
    network.burst.p_enter = 1.0;
    network.burst.p_exit = 1e-9;
    network.burst.loss_bad = 1.0;
    sim::Engine engine(sim::Engine::Config{.seed = seed, .network = network});
    engine.add_agent(std::make_unique<CountingAgent>());
    auto sink_owner = std::make_unique<CountingAgent>();
    CountingAgent* sink = sink_owner.get();
    engine.add_agent(std::move(sink_owner));
    const auto send_one = [&engine]() { engine.send(news_message(0, 1)); };
    send_one();          // cycle 0: good state, delivered
    engine.run_cycle();  // now 1
    for (int i = 0; i < 5; ++i) {
      send_one();  // bad state from cycle 1 on: dropped
      engine.run_cycle();
    }
    return sink->received;
  };
  EXPECT_EQ(run(9), 1);
  EXPECT_EQ(run(9), run(9));  // chain is a pure function of the seed
}

// Receipt cycles at node 1 of the (0 -> 1) link, sending one message on it
// per cycle for 40 cycles under a loss-0/loss-1 burst model, so the drop
// pattern is exactly the chain's state sequence. `extra` adds traffic on
// other links; `extra_first` sends sender 0's other message before the
// (0 -> 1) one, so that link is first used before it.
std::vector<Cycle> burst_pattern(bool extra, bool extra_first) {
  struct Recorder : sim::Agent {
    std::vector<Cycle> from_zero;
    void on_cycle(sim::Context&) override {}
    void on_message(sim::Context& ctx, const net::Message& m) override {
      if (m.from == 0) from_zero.push_back(ctx.now());
    }
    void publish(sim::Context&, ItemIdx, ItemId) override {}
  };
  net::NetworkConfig network;
  network.burst.p_enter = 0.3;
  network.burst.p_exit = 0.3;
  network.burst.loss_good = 0.0;
  network.burst.loss_bad = 1.0;
  sim::Engine::Config config;
  config.seed = 13;
  config.network = network;
  sim::Engine engine(config);
  std::vector<Recorder*> nodes;
  for (int i = 0; i < 4; ++i) {
    auto node = std::make_unique<Recorder>();
    nodes.push_back(node.get());
    engine.add_agent(std::move(node));
  }
  for (int c = 0; c < 40; ++c) {
    if (extra && extra_first) engine.send(news_message(0, 3));
    engine.send(news_message(0, 1));
    if (extra) {
      if (!extra_first) engine.send(news_message(0, 3));
      engine.send(news_message(2, 1));
      engine.send(news_message(3, 2));
    }
    engine.run_cycle();
  }
  return nodes[1]->from_zero;
}

TEST(BurstLoss, LinkPatternIgnoresOtherLinksAndFirstUseOrder) {
  const std::vector<Cycle> alone = burst_pattern(false, false);
  // Both chain states occur: some sends got through, some were dropped.
  EXPECT_GT(alone.size(), 5u);
  EXPECT_LT(alone.size(), 35u);
  EXPECT_EQ(burst_pattern(true, false), alone);
  EXPECT_EQ(burst_pattern(true, true), alone);
}

TEST(BurstLoss, ChainsRestartGoodAfterBurstOffAndOn) {
  net::NetworkConfig bursty;
  bursty.burst.p_enter = 1.0;  // bad from the cycle after first use on
  bursty.burst.p_exit = 1e-9;
  bursty.burst.loss_bad = 1.0;
  sim::Engine::Config config;
  config.seed = 9;
  config.network = bursty;
  sim::Engine engine(config);
  engine.add_agent(std::make_unique<CountingAgent>());
  auto sink_owner = std::make_unique<CountingAgent>();
  CountingAgent* sink = sink_owner.get();
  engine.add_agent(std::move(sink_owner));
  const auto send_cycle = [&] {
    const int before = sink->received;
    engine.send(news_message(0, 1));
    engine.run_cycle();
    engine.run_cycle();  // latency 1: delivered at the next cycle
    return sink->received - before;
  };
  EXPECT_EQ(send_cycle(), 1);  // cycle 0: new chain, good
  EXPECT_EQ(send_cycle(), 0);  // cycle 2: bad
  engine.set_network(net::NetworkConfig{});
  EXPECT_EQ(send_cycle(), 1);  // bursty loss off
  engine.set_network(bursty);
  // Re-enabled: the chain starts over in the good state at this cycle
  // instead of resuming the bad state it was left in.
  EXPECT_EQ(send_cycle(), 1);
  EXPECT_EQ(send_cycle(), 0);
}

// Rows stay sorted by recipient under interleaved first uses from dozens
// of senders, and every chain returns what it would alone.
TEST(LinkChains, RowsStaySortedUnderInterleavedFirstUses) {
  net::BurstLossModel burst;
  burst.p_enter = 0.25;
  burst.p_exit = 0.4;
  burst.loss_bad = 0.5;
  const Rng root(31);
  sim::LinkChains chains;
  std::map<std::pair<NodeId, NodeId>, sim::LinkChains> alone;
  Rng rng(5);
  Cycle now = 0;
  bool both_states = false;
  for (int use = 0; use < 6000; ++use) {
    if (use % 150 == 149) now += static_cast<Cycle>(1 + rng.index(3));
    const auto from = static_cast<NodeId>(rng.index(48));
    const auto to = static_cast<NodeId>(rng.index(300));
    const bool bad = chains.advance(from, to, now, burst, root);
    sim::LinkChains& own = alone[std::pair{from, to}];
    ASSERT_EQ(bad, own.advance(from, to, now, burst, root))
        << "link " << from << "->" << to << " at cycle " << now;
    both_states |= bad;
  }
  EXPECT_TRUE(both_states);
  std::size_t total = 0;
  for (NodeId from = 0; from < 48; ++from) {
    const auto row = chains.row(from);
    total += row.size();
    for (std::size_t i = 1; i < row.size(); ++i) {
      ASSERT_LT(row[i - 1].to, row[i].to) << "sender " << from;
    }
    for (const sim::LinkChains::LinkState& state : row) {
      ASSERT_EQ(alone.count(std::pair{from, state.to}), 1u);
      EXPECT_LE(state.cycle, static_cast<std::uint32_t>(now));
    }
  }
  EXPECT_EQ(total, alone.size());
  EXPECT_TRUE(chains.row(48).empty());
  chains.clear();
  EXPECT_TRUE(chains.row(0).empty());
}

// ---- End-to-end robustness ------------------------------------------------

data::Workload hostile_workload(std::uint64_t seed) {
  Rng rng(seed);
  data::SurveyConfig sc;
  sc.base_users = 60;
  sc.base_items = 80;
  sc.replication = 2;
  return data::make_survey(sc, rng);
}

// The acceptance claim of the reliability layer: under ~20% average bursty
// loss (stationary bad fraction 1/2 at loss_bad 0.4), ack/retransmit
// strictly improves recall over fire-and-forget BEEP.
TEST(Reliability, RetransmitsRecoverRecallUnderBurstyLoss) {
  const data::Workload workload = hostile_workload(17);
  analysis::RunConfig config;
  config.approach = analysis::Approach::kWhatsUp;
  config.fanout = 6;
  config.seed = 23;
  config.network.burst.p_enter = 0.2;
  config.network.burst.p_exit = 0.2;
  config.network.burst.loss_bad = 0.4;
  config.threads = 2;

  const analysis::RunResult plain = analysis::run_protocol(workload, config);
  config.reliability.enabled = true;
  const analysis::RunResult reliable = analysis::run_protocol(workload, config);

  EXPECT_GT(reliable.scores.recall, plain.scores.recall)
      << "plain=" << plain.scores.recall << " reliable=" << reliable.scores.recall;
  // The layer actually worked for its recall: copies were tracked, some
  // acks came back, and timeouts drove retransmissions.
  EXPECT_GT(reliable.reliability.tracked, 0u);
  EXPECT_GT(reliable.reliability.acked, 0u);
  EXPECT_GT(reliable.reliability.retransmits, 0u);
  EXPECT_GT(reliable.reliability.ack_messages, 0u);
  // The fire-and-forget run pays none of the control overhead.
  EXPECT_EQ(plain.reliability.tracked, 0u);
  EXPECT_EQ(plain.reliability.ack_messages, 0u);
}

// Crash-recovery end to end: a WhatsUp node crashes mid-run, recovers via
// the rejoin handshake, and ends up with a repopulated RPS view.
TEST(Reliability, CrashedWhatsUpNodeRejoinsWithFreshViews) {
  const data::Workload workload = hostile_workload(3);
  analysis::WorkloadOpinions opinions(workload);
  sim::Engine engine(sim::Engine::Config{.seed = 41});
  WhatsUpConfig wu;
  wu.reliability.enabled = true;
  const std::size_t n = workload.num_users();
  Rng rng(77);
  std::vector<WhatsUpAgent*> agents;
  for (NodeId v = 0; v < n; ++v) {
    auto agent = std::make_unique<WhatsUpAgent>(v, wu, opinions);
    agents.push_back(agent.get());
    engine.add_agent(std::move(agent));
  }
  for (NodeId v = 0; v < n; ++v) {
    std::vector<net::Descriptor> seed_view;
    for (int i = 0; i < wu.params.rps_view_size; ++i) {
      NodeId peer = v;
      while (peer == v) peer = static_cast<NodeId>(rng.index(n));
      seed_view.push_back(net::Descriptor{peer, -1, nullptr});
    }
    agents[v]->bootstrap_rps(std::move(seed_view));
  }
  for (int c = 0; c < 5; ++c) engine.run_cycle();
  ASSERT_GT(agents[7]->rps_view().size(), 0u);
  engine.crash(7, /*recover_at=*/9);
  for (int c = 0; c < 4; ++c) engine.run_cycle();  // cycles 5..8
  EXPECT_TRUE(engine.is_crashed(7));
  // Recovery at cycle 9 clears the views and fires the rejoin request; the
  // contact's kRejoinReply lands a cycle later and repopulates the view.
  for (int c = 0; c < 4; ++c) engine.run_cycle();
  EXPECT_FALSE(engine.is_crashed(7));
  EXPECT_TRUE(engine.is_active(7));
  EXPECT_GT(agents[7]->rps_view().size(), 0u);
}

}  // namespace
}  // namespace whatsup
