#include "analysis/runner.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>

#include "baselines/cascade_agent.hpp"
#include "baselines/cf_agent.hpp"
#include "baselines/gossip_agent.hpp"
#include "common/parallel.hpp"
#include "graph/clustering.hpp"
#include "graph/components.hpp"
#include "graph/scc.hpp"
#include "graph/static_graph.hpp"
#include "scenario/executor.hpp"
#include "sim/engine.hpp"
#include "whatsup/node.hpp"

namespace whatsup::analysis {

std::string to_string(Approach approach) {
  switch (approach) {
    case Approach::kWhatsUp: return "WhatsUp";
    case Approach::kWhatsUpCos: return "WhatsUp-Cos";
    case Approach::kCfWup: return "CF-Wup";
    case Approach::kCfCos: return "CF-Cos";
    case Approach::kGossip: return "Gossip";
    case Approach::kCascade: return "Cascade";
  }
  return "unknown";
}

Metric metric_of(Approach approach) {
  switch (approach) {
    case Approach::kWhatsUpCos:
    case Approach::kCfCos:
      return Metric::kCosine;
    default:
      return Metric::kWup;
  }
}

void RunConfig::fit_scenario_horizon(Cycle margin) {
  if (!scenario.has_value()) return;
  const Cycle needed = scenario->horizon() + margin;
  if (needed > total_cycles()) drain_cycles += needed - total_cycles();
}

namespace {

// Node-range width for the collection passes below. A constant (never a
// function of the thread count) so partial merges happen in the same
// order under any executor; see common/parallel.hpp.
constexpr std::size_t kCollectChunk = 1024;

// The overlay edge source of one node at the end of a run: members of its
// WUP/kNN view (RPS for gossip, the social graph for cascading).
// Scenario-registered adversary nodes are not protocol agents (the casts
// miss) and contribute no overlay edges.
std::span<const net::Descriptor> overlay_view(const sim::Agent& agent,
                                              Approach approach) {
  switch (approach) {
    case Approach::kWhatsUp:
    case Approach::kWhatsUpCos:
      if (const auto* wu = dynamic_cast<const WhatsUpAgent*>(&agent)) {
        return wu->wup_view().entries();
      }
      return {};
    case Approach::kCfWup:
    case Approach::kCfCos:
      if (const auto* cf = dynamic_cast<const baselines::CfAgent*>(&agent)) {
        return cf->knn_view().entries();
      }
      return {};
    case Approach::kGossip:
      if (const auto* gossip = dynamic_cast<const baselines::GossipAgent*>(&agent)) {
        return gossip->rps_view().entries();
      }
      return {};
    case Approach::kCascade:
      return {};
  }
  return {};
}

// Builds the end-of-run overlay as a CSR StaticGraph, streaming view
// edges straight out of every agent into the pre-reserved edge slab —
// degree count, fill and per-row dedupe all run over disjoint node ranges
// on the engine's worker pool, and no intermediate adjacency-list graph
// is ever materialized (an adjacency-list graph would cost one heap block
// per node plus a full resort on dedupe, all on the main thread).
graph::StaticGraph overlay_graph(sim::Engine& engine, Approach approach,
                                 const data::Workload& workload) {
  const std::size_t n = engine.num_nodes();
  const bool social = approach == Approach::kCascade && workload.social.has_value();
  graph::StaticGraph::Builder builder(n);
  parallel_chunks(&engine, n, kCollectChunk,
                  [&](std::size_t, std::size_t lo, std::size_t hi) {
                    for (std::size_t v = lo; v < hi; ++v) {
                      const auto id = static_cast<NodeId>(v);
                      const std::size_t degree =
                          social ? workload.social->neighbors(id).size()
                                 : overlay_view(engine.agent(id), approach).size();
                      builder.set_degree(id, degree);
                    }
                  });
  builder.finish_degrees();
  parallel_chunks(&engine, n, kCollectChunk,
                  [&](std::size_t, std::size_t lo, std::size_t hi) {
                    for (std::size_t v = lo; v < hi; ++v) {
                      const auto id = static_cast<NodeId>(v);
                      if (social) {
                        for (const NodeId w : workload.social->neighbors(id)) {
                          builder.add_edge(id, w);
                        }
                      } else {
                        for (const net::Descriptor& d :
                             overlay_view(engine.agent(id), approach)) {
                          builder.add_edge(id, d.node);
                        }
                      }
                    }
                    builder.dedupe_rows(static_cast<NodeId>(lo),
                                        static_cast<NodeId>(hi));
                  });
  return builder.build();
}

}  // namespace

RunResult run_protocol(const data::Workload& base_workload, const RunConfig& config) {
  data::Workload workload = base_workload;  // local copy: we draw a schedule
  Rng rng(config.seed);

  // Publication schedule: uniform over the publication phase, optionally
  // de-synchronized (items of one burst staggered over the next
  // publish_spread cycles; late stragglers publish into the drain tail).
  // Computed identically on every fragment worker — pure function of the
  // calendar, no extra RNG draws.
  const Cycle first_pub = config.warmup_cycles;
  const Cycle last_pub = config.warmup_cycles + config.publish_cycles - 1;
  workload.schedule_publications(first_pub, last_pub, rng);
  workload.spread_publication_storms(config.publish_spread);

  sim::Engine::Config engine_config;
  engine_config.seed = rng.next_u64();
  engine_config.network = config.network;
  engine_config.threads = config.threads;
  engine_config.shard_nodes = config.shard_nodes;
  engine_config.transport = config.transport;
  sim::Engine engine(engine_config);
  // Fragment mode: this process runs one lockstep worker of a partitioned
  // run (sim/transport.hpp). The whole setup below executes identically on
  // every worker — same workload copy, same schedule, same scenario — and
  // the engine partitions agent execution by ownership.
  const bool fragmented = engine.fragments() > 1;

  // Scenario wiring: prepare() rewrites the publication schedule (flash
  // crowds) and appends spam items BEFORE the calendar is built and the
  // tracker is sized; opinions gain a mutable alias layer only when the
  // timeline needs one, so scenario-free runs keep the exact opinion
  // object graph they had.
  WorkloadOpinions ground_truth(workload);
  std::optional<sim::MutableOpinions> dynamic_opinions;
  std::optional<scenario::Executor> scenario_exec;
  if (config.scenario.has_value()) {
    if (config.scenario->mutates_opinions()) dynamic_opinions.emplace(ground_truth);
    const std::uint64_t scenario_seed = rng.next_u64();
    scenario_exec.emplace(*config.scenario, engine, workload,
                          dynamic_opinions.has_value() ? &*dynamic_opinions : nullptr,
                          scenario_seed);
    scenario_exec->prepare();
  }
  const sim::Opinions& opinions =
      dynamic_opinions.has_value() ? static_cast<const sim::Opinions&>(*dynamic_opinions)
                                   : ground_truth;

  Params params = config.params;
  params.f_like = config.fanout;

  const std::size_t n = workload.num_users();
  if (config.approach == Approach::kCascade && !workload.social.has_value()) {
    throw std::invalid_argument("cascade requires a workload with a social graph");
  }

  // BOOTSTRAP phase: agents are constructed AND their RPS/kNN views
  // seeded with random peers (the role of the bootstrap server in the
  // deployed system) per shard on the worker pool. Every node draws its
  // seed peers from its own counter-based bootstrap stream, so the wiring
  // is bit-identical for any thread count and shard width — this replaced
  // the sequential per-node seeding loops that serialized 100k-node
  // startup on the main thread (one re-baseline of fixed-seed digests).
  const auto seed_view = [&](auto& agent, NodeId self, Rng& boot_rng) {
    std::vector<net::Descriptor> seed;
    const auto k = static_cast<std::size_t>(params.rps_view_size);
    seed.reserve(k);
    for (std::size_t picked = 0; picked < k && n > 1; ++picked) {
      NodeId peer = self;
      while (peer == self) peer = static_cast<NodeId>(boot_rng.index(n));
      seed.push_back(net::Descriptor{peer, -1, nullptr});
    }
    agent.bootstrap_rps(std::move(seed));
  };

  WhatsUpConfig wu;
  wu.params = params;
  wu.metric = config.metric_override.value_or(metric_of(config.approach));
  wu.beep_amplification = config.beep_amplification;
  wu.beep_orientation = config.beep_orientation;
  wu.obfuscation = config.obfuscation;
  wu.reliability = config.reliability;
  wu.hygiene = config.view_hygiene;
  const Metric cf_metric = config.metric_override.value_or(metric_of(config.approach));

  engine.bootstrap(n, [&](NodeId v, Rng& boot_rng) -> std::unique_ptr<sim::Agent> {
    switch (config.approach) {
      case Approach::kWhatsUp:
      case Approach::kWhatsUpCos: {
        auto agent = std::make_unique<WhatsUpAgent>(v, wu, opinions);
        seed_view(*agent, v, boot_rng);
        return agent;
      }
      case Approach::kCfWup:
      case Approach::kCfCos: {
        auto agent = std::make_unique<baselines::CfAgent>(v, config.fanout, cf_metric,
                                                          params, opinions);
        seed_view(*agent, v, boot_rng);
        return agent;
      }
      case Approach::kGossip: {
        auto agent = std::make_unique<baselines::GossipAgent>(
            v, config.fanout, params.rps_view_size, params.rps_period, opinions);
        seed_view(*agent, v, boot_rng);
        return agent;
      }
      case Approach::kCascade: {
        const auto friends_span = workload.social->neighbors(v);
        std::vector<NodeId> friends(friends_span.begin(), friends_span.end());
        return std::make_unique<baselines::CascadeAgent>(v, std::move(friends),
                                                         opinions);
      }
    }
    return nullptr;
  });

  // Adversary nodes (if the scenario declares any) register after the
  // honest population, initially offline; their events bring them up.
  if (scenario_exec.has_value()) scenario_exec->register_adversaries();

  metrics::Tracker tracker(n, workload.num_items());
  tracker.attach(engine);

  std::vector<std::uint64_t> cycle_digests;
  if (config.collect_cycle_digests) {
    engine.add_cycle_hook([&tracker, &cycle_digests](sim::Engine&, Cycle) {
      cycle_digests.push_back(tracker.digest());
    });
  }

  // Observability hooks (src/obs/): all run at the cycle barrier on the
  // main thread and feed nothing back into the simulation, so fixed-seed
  // trajectories are untouched (tests/test_obs.cpp pins this).
  const obs::RunOptions& observability = config.observability;
  if (observability.enabled()) obs::set_enabled(true);
  std::shared_ptr<obs::Heartbeat> heartbeat;
  if (observability.progress_every > 0 && engine.fragment() == 0) {
    heartbeat = std::make_shared<obs::Heartbeat>(config.total_cycles(),
                                                 observability.progress_every);
    engine.add_cycle_hook(
        [heartbeat](sim::Engine&, Cycle c) { heartbeat->tick(c); });
  }
  std::vector<obs::CycleSample> stats_series;
  if (observability.stats_every > 0) {
    const Cycle every = observability.stats_every;
    engine.add_cycle_hook([&stats_series, every](sim::Engine&, Cycle c) {
      if ((c + 1) % every != 0) return;
      obs::CycleSample sample;
      sample.cycle = c;
      // Cumulative registry totals plus the arena's cheap counters; the
      // expensive engine.memory_stats() walk stays end-of-run only.
      sample.snapshot = obs::Snapshot::collect();
      sample.snapshot.absorb_arena();
      stats_series.push_back(std::move(sample));
    });
  }

  // Publication calendar (spam items carry publish_at == kNoCycle and are
  // injected by their spammers, never by the calendar).
  std::map<Cycle, std::vector<ItemIdx>> calendar;
  for (const data::NewsSpec& spec : workload.news) {
    if (spec.publish_at != kNoCycle) {
      calendar[spec.publish_at].push_back(spec.index);
      // Declare publication cycles so the tracker can latency-score each
      // unique delivery (publication -> delivery, in cycles).
      tracker.set_publish_cycle(spec.index, spec.publish_at);
    }
  }

  const Cycle total = config.total_cycles();
  for (Cycle c = 0; c < total; ++c) {
    if (scenario_exec.has_value()) scenario_exec->begin_cycle(c);
    if (const auto it = calendar.find(c); it != calendar.end()) {
      for (ItemIdx item : it->second) {
        engine.publish(workload.news[item].source, item, workload.news[item].id);
      }
    }
    engine.run_cycle();
  }

  // Per-layer footprint attribution for the perf docs' "Memory map"
  // (capacity accounting, not RSS — see Engine::memory_stats), emitted
  // through the unified obs::Snapshot reporting path.
  if (std::getenv("WHATSUP_MEM_STATS") != nullptr) {
    obs::Snapshot snap;
    snap.absorb(engine);
    snap.absorb(tracker);
    snap.write_text(stderr, "[mem_stats]");
  }

  // ---- Collect results ----
  RunResult result;
  const Cycle measure_from = config.warmup_cycles + config.measure_margin;
  for (const data::NewsSpec& spec : workload.news) {
    if (spec.publish_at >= measure_from) result.measured.push_back(spec.index);
  }
  if (fragmented) {
    // Partial results only: this worker's tracker saw just the owned
    // nodes' events, and the full collection passes below dereference
    // every agent (outer slots are null here). The per-cycle digests are
    // the payload — commutative partials that sum (mod 2^64) across
    // workers to the single-process series — plus partial traffic for
    // observability.
    result.cycle_digests = std::move(cycle_digests);
    result.news_messages = engine.traffic().messages(net::Protocol::kBeep);
    result.gossip_messages = engine.traffic().messages(net::Protocol::kRps) +
                             engine.traffic().messages(net::Protocol::kWup);
    // No stats snapshot here: an in-process fragment worker merging the
    // registry would read lanes that sibling fragments are still writing.
    return result;
  }
  if (observability.enabled()) {
    result.stats_series = std::move(stats_series);
    result.stats = obs::Snapshot::collect();
    result.stats.absorb(engine);
    result.stats.absorb(tracker);
    result.stats.absorb_arena();
  }
  result.reached = tracker.reached_sets();
  // Score reduction fans out over the engine's worker pool (fixed chunk
  // widths, in-order merges: bit-identical for any thread count).
  result.scores = metrics::compute_scores(workload, result.reached, result.measured,
                                          &engine);
  result.per_user = metrics::per_user_scores(workload, result.reached,
                                             result.measured, &engine);
  result.cycle_digests = std::move(cycle_digests);
  if (config.scenario.has_value()) {
    // Per-phase scores around each timeline event (windows split at every
    // event cycle and episode end).
    const std::vector<metrics::Window> windows = config.scenario->windows(total);
    result.windows = metrics::windowed_scores(workload, result.reached,
                                              result.measured, windows, &engine);
  }

  const net::Traffic& traffic = engine.traffic();
  result.news_messages = traffic.messages(net::Protocol::kBeep);
  result.gossip_messages =
      traffic.messages(net::Protocol::kRps) + traffic.messages(net::Protocol::kWup);
  result.msgs_per_user =
      static_cast<double>(traffic.total_messages()) / static_cast<double>(n);
  result.msgs_per_cycle_node = static_cast<double>(traffic.total_messages()) /
                               static_cast<double>(total) / static_cast<double>(n);
  result.kbps_total =
      traffic.kbps_per_node_total(n, static_cast<double>(total), config.cycle_seconds,
                                  /*since_mark=*/false);
  result.kbps_gossip =
      traffic.kbps_per_node(net::Protocol::kRps, n, static_cast<double>(total),
                            config.cycle_seconds, false) +
      traffic.kbps_per_node(net::Protocol::kWup, n, static_cast<double>(total),
                            config.cycle_seconds, false);
  result.kbps_beep = traffic.kbps_per_node(net::Protocol::kBeep, n,
                                           static_cast<double>(total),
                                           config.cycle_seconds, false);

  // Reliability accounting: retransmit-queue totals over all WhatsUp
  // agents (other approaches have no reliability layer and contribute
  // zeros), ack control traffic, and the tracker's redundancy/latency
  // reductions. Cheap relative to the run; always collected.
  for (NodeId v = 0; v < n; ++v) {
    if (const auto* wu_agent = dynamic_cast<const WhatsUpAgent*>(&engine.agent(v))) {
      const sim::RetransmitQueue::Stats& s = wu_agent->retransmit_queue().stats();
      result.reliability.tracked += s.tracked;
      result.reliability.retransmits += s.retransmits;
      result.reliability.acked += s.acked;
      result.reliability.expired += s.expired;
    } else {
      break;  // homogeneous honest population: no WhatsUp agents at all
    }
  }
  result.reliability.ack_messages = traffic.messages(net::Protocol::kCtrl);
  result.reliability.duplicates = tracker.total_duplicates();
  result.reliability.deliveries = tracker.total_deliveries();
  result.reliability.redundancy_ratio = tracker.redundancy_ratio();
  result.reliability.mean_latency = tracker.mean_latency();
  if (config.scenario.has_value()) {
    const auto& by_cycle = tracker.latency_by_cycle();
    const std::vector<metrics::Window> windows = config.scenario->windows(total);
    result.reliability.window_latency.reserve(windows.size());
    for (const metrics::Window& w : windows) {
      std::uint64_t sum = 0;
      std::uint64_t count = 0;
      for (Cycle c = w.begin; c < w.end; ++c) {
        const auto idx = static_cast<std::size_t>(c);
        if (idx >= by_cycle.size()) break;
        sum += by_cycle[idx].first;
        count += by_cycle[idx].second;
      }
      result.reliability.window_latency.push_back(
          count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count));
    }
  }

  const graph::StaticGraph overlay = overlay_graph(engine, config.approach, workload);
  result.overlay.lscc_fraction = graph::largest_scc_fraction(overlay);
  result.overlay.clustering = graph::avg_clustering_coefficient(overlay);
  result.overlay.components = graph::weak_components(overlay).count;

  // Table IV (dislike histograms) and Fig. 6 (hop histograms): per-item
  // reduction over fixed item chunks on the worker pool, partials merged
  // in ascending chunk order on this thread.
  constexpr std::size_t kItemChunk = 64;
  const std::size_t n_chunks =
      result.measured.empty() ? 0 : (result.measured.size() + kItemChunk - 1) / kItemChunk;
  std::vector<std::array<double, 5>> dislike_partial(n_chunks);
  std::vector<double> dislike_partial_total(n_chunks, 0.0);
  std::vector<metrics::HopCounts> hops_partial(n_chunks);
  parallel_chunks(&engine, result.measured.size(), kItemChunk,
                  [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
                    auto& counts = dislike_partial[chunk];
                    counts.fill(0.0);
                    for (std::size_t i = lo; i < hi; ++i) {
                      const ItemIdx item = result.measured[i];
                      const auto& hist = tracker.dislikes_at_liked(item);
                      for (std::size_t bin = 0; bin < hist.size(); ++bin) {
                        const std::size_t clipped = std::min<std::size_t>(bin, 4);
                        counts[clipped] += static_cast<double>(hist[bin]);
                        dislike_partial_total[chunk] += static_cast<double>(hist[bin]);
                      }
                      hops_partial[chunk].accumulate(tracker.hops(item));
                    }
                  });
  std::array<double, 5> dislike_counts{};
  double dislike_total = 0.0;
  for (std::size_t chunk = 0; chunk < n_chunks; ++chunk) {
    for (std::size_t bin = 0; bin < dislike_counts.size(); ++bin) {
      dislike_counts[bin] += dislike_partial[chunk][bin];
    }
    dislike_total += dislike_partial_total[chunk];
    result.hops_per_item.accumulate(hops_partial[chunk]);
  }
  if (dislike_total > 0.0) {
    for (double& c : dislike_counts) c /= dislike_total;
  }
  result.dislike_fractions = dislike_counts;

  if (!result.measured.empty()) {
    const double inv = 1.0 / static_cast<double>(result.measured.size());
    for (auto* hist : {&result.hops_per_item.forward_like, &result.hops_per_item.infect_like,
                       &result.hops_per_item.forward_dislike,
                       &result.hops_per_item.infect_dislike}) {
      for (double& x : *hist) x *= inv;
    }
  }
  return result;
}

}  // namespace whatsup::analysis
