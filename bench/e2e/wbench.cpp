// End-to-end benchmark program. run.py (same directory) builds it, launches it
// once per rep in a fresh process, and aggregates the JSON line it prints.
//
//   wbench timed  --workload W --seed S [--digests] [--smoke]
//   wbench traced --workload W --seed S [--trace-out FILE] [--smoke]
//
// `timed` generates the workload kSetupReps times (the set-up; the median is
// reported) and runs the last copy through analysis::run_protocol — the
// entry point the repository's bench programs use — with telemetry off, timing the whole
// call. `--digests` also collects the per-cycle Tracker digest series (the
// fragment-partitioned workload always does: it is the only output a
// fragment returns).
//
// `traced` rebuilds run_protocol's WhatsUp run loop from public calls and
// attributes its time to layers from outside the library: a TimedAgent
// decorator around every WhatsUpAgent (on_message split by message type),
// a TimedObserver around metrics::Tracker, a TimedTransport around the
// socket mesh, timestamps around this file's own call sites, and the obs
// registry switched on and read unchanged. It writes the spans as Chrome
// trace-event JSON. Both modes print a result signature; run.py checks that
// the replica followed the timed trajectory exactly.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/runner.hpp"
#include "dataset/survey.hpp"
#include "metrics/scores.hpp"
#include "metrics/tracker.hpp"
#include "obs/registry.hpp"
#include "obs/snapshot.hpp"
#include "partition_launcher.hpp"
#include "sim/engine.hpp"
#include "sim/transport.hpp"
#include "whatsup/node.hpp"

namespace whatsup::e2e {
namespace {

// ---- workloads --------------------------------------------------------------

// One simulated deployment of fixed size. Every workload runs the survey
// generator with WhatsUp (WUP metric + BEEP, fLIKE = 8).
struct Shape {
  const char* name;
  std::size_t users;
  std::size_t items;
  Cycle warmup;
  Cycle publish;
  Cycle drain;
  // Items published before warmup + margin are left out of the scores.
  Cycle measure_margin;
  unsigned threads;
  bool faults;            // planetlab fault preset + reliability + hygiene
  std::size_t fragments;  // forked lockstep worker processes
};

// Why each exists is in README.md. scale-10k is cut to fit the per-run time
// budget: 200 items over 20 publication cycles, and a 5-cycle measure margin
// so that three quarters of its items are scored, not a third.
constexpr Shape kShapes[] = {
    {"paper-500", 500, 500, 5, 180, 15, 13, 1, false, 1},
    {"scale-10k", 10000, 200, 5, 20, 10, 5, 2, false, 1},
    {"faults-500", 500, 500, 5, 180, 15, 13, 1, true, 1},
    {"split-500", 500, 500, 5, 180, 15, 13, 1, false, 2},
};

// --smoke: the same four shapes at toy sizes.
constexpr Shape kSmokeShapes[] = {
    {"paper-500", 100, 100, 5, 30, 10, 13, 1, false, 1},
    {"scale-10k", 1000, 100, 5, 20, 5, 5, 2, false, 1},
    {"faults-500", 100, 100, 5, 30, 10, 13, 1, true, 1},
    {"split-500", 100, 100, 5, 30, 10, 13, 1, false, 2},
};

const Shape& find_shape(std::string_view name, bool smoke) {
  for (const Shape& s : smoke ? kSmokeShapes : kShapes) {
    if (name == s.name) return s;
  }
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

// The survey (who likes what) is drawn from a fixed seed, like the paper's
// one surveyed population; --seed drives everything run_protocol draws (the
// publication calendar, gossip and BEEP choices, network faults). Seeding
// the survey too multiplied the seed-to-seed spread of the quality metrics
// and message counts by two to four (README.md), and with it their bounds.
constexpr std::uint64_t kSurveySeed = 11;

data::Workload generate(const Shape& shape) {
  data::SurveyConfig config;
  config.base_users = shape.users / 2;
  config.base_items = shape.items / 2;
  config.replication = 2;
  Rng rng(kSurveySeed);
  return data::make_survey(config, rng);
}

analysis::RunConfig run_config(const Shape& shape, std::uint64_t seed) {
  analysis::RunConfig config;
  config.approach = analysis::Approach::kWhatsUp;
  config.fanout = 8;
  config.seed = seed;
  config.warmup_cycles = shape.warmup;
  config.publish_cycles = shape.publish;
  config.drain_cycles = shape.drain;
  config.measure_margin = shape.measure_margin;
  config.threads = shape.threads;
  if (shape.faults) {
    config.network = net::NetworkConfig::planetlab_faults();
    config.reliability.enabled = true;
    config.view_hygiene.max_age = 20;
    config.view_hygiene.suspicion_limit = 2;
  }
  return config;
}

// ---- small utilities --------------------------------------------------------

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

double seconds(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }

// VmHWM of this process in KiB (0 when /proc is unavailable).
std::uint64_t peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtoull(line.c_str() + 6, nullptr, 10);
  }
  return 0;
}

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

// Fingerprint of the final reached sets (single-process runs).
std::uint64_t reach_fingerprint(const std::vector<HybridSet>& reached) {
  Fnv fnv;
  for (std::size_t item = 0; item < reached.size(); ++item) {
    fnv.add(item);
    reached[item].for_each_set([&](std::size_t user) { fnv.add(user); });
  }
  return fnv.h;
}

std::uint64_t series_fingerprint(const std::vector<std::uint64_t>& series) {
  Fnv fnv;
  for (std::uint64_t d : series) fnv.add(d);
  return fnv.h;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Builds one flat JSON object; doubles keep all 17 significant digits.
class JsonObject {
 public:
  JsonObject& num(std::string_view key, double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(key, buf);
  }
  JsonObject& str(std::string_view key, std::string_view v) {
    return raw(key, "\"" + std::string(v) + "\"");
  }
  JsonObject& raw(std::string_view key, std::string_view json) {
    body_ += body_.empty() ? "{" : ",";
    body_ += "\"" + std::string(key) + "\":" + std::string(json);
    return *this;
  }
  std::string str() const { return body_.empty() ? "{}" : body_ + "}"; }

 private:
  std::string body_;
};

// What a run recommended and sent. Equal signatures mean equal trajectories:
// single-process runs carry the scores and a fingerprint of the final reached
// sets; fragment runs (whose trackers hold partial state) carry the Tracker
// digest series instead.
struct Signature {
  double recall = 0.0;
  double precision = 0.0;
  double f1 = 0.0;
  double msgs_per_user = 0.0;
  double latency = 0.0;  // mean publication -> first delivery, cycles
  std::uint64_t reach_fp = 0;
  std::uint64_t series_fp = 0;
  std::uint64_t final_digest = 0;

  std::string json(bool fragmented) const {
    JsonObject o;
    o.num("msgs_per_user", msgs_per_user);
    if (!fragmented) {
      o.num("recall", recall).num("precision", precision).num("f1", f1);
      o.num("latency", latency).str("reach_fp", hex(reach_fp));
    }
    if (series_fp != 0) o.str("series_fp", hex(series_fp));
    if (final_digest != 0) o.str("final_digest", hex(final_digest));
    return o.str();
  }
};

// ---- timed mode -------------------------------------------------------------

// Workload generations per timed rep; their median is the set-up time.
constexpr int kSetupReps = 5;

int run_timed(const Shape& shape, std::uint64_t seed, bool digests) {
  std::vector<double> setup;
  data::Workload workload;
  for (int k = 0; k < kSetupReps; ++k) {
    const std::uint64_t t0 = now_ns();
    workload = generate(shape);
    setup.push_back(seconds(now_ns() - t0));
  }
  std::sort(setup.begin(), setup.end());
  const double setup_s = setup[setup.size() / 2];

  analysis::RunConfig config = run_config(shape, seed);
  const bool fragmented = shape.fragments > 1;
  config.collect_cycle_digests = digests || fragmented;
  const double n = static_cast<double>(workload.num_users());
  Signature sig;
  std::uint64_t peak_kib = 0;

  std::uint64_t wall = 0;
  const std::uint64_t t0 = now_ns();
  if (fragmented) {
    // Each worker appends its message count and its own VmHWM to the digest
    // series, which run_partitioned sums element-wise across workers.
    const std::vector<std::uint64_t> series = bench::run_partitioned(
        shape.fragments, [&](sim::Transport& transport) {
          analysis::RunConfig worker = config;
          worker.partitions = static_cast<int>(shape.fragments);
          worker.transport = &transport;
          const analysis::RunResult r = analysis::run_protocol(workload, worker);
          std::vector<std::uint64_t> out = r.cycle_digests;
          out.push_back(r.news_messages + r.gossip_messages);
          out.push_back(peak_rss_kib());
          return out;
        });
    wall = now_ns() - t0;
    const std::vector<std::uint64_t> digest_series(series.begin(), series.end() - 2);
    sig.msgs_per_user = static_cast<double>(series[series.size() - 2]) / n;
    sig.series_fp = series_fingerprint(digest_series);
    sig.final_digest = digest_series.back();
    peak_kib = series.back();
  } else {
    const analysis::RunResult result = analysis::run_protocol(workload, config);
    wall = now_ns() - t0;
    peak_kib = peak_rss_kib();
    sig.recall = result.scores.recall;
    sig.precision = result.scores.precision;
    sig.f1 = result.scores.f1;
    sig.msgs_per_user = result.msgs_per_user;
    sig.latency = result.reliability.mean_latency;
    sig.reach_fp = reach_fingerprint(result.reached);
    if (digests) {
      sig.series_fp = series_fingerprint(result.cycle_digests);
      sig.final_digest = result.cycle_digests.back();
    }
  }
  std::printf("%s\n", JsonObject()
                          .num("wall_s", seconds(wall))
                          .num("cycles", config.total_cycles())
                          .num("setup_s", setup_s)
                          .num("peak_kib", static_cast<double>(peak_kib))
                          .num("nodes", n)
                          .raw("sig", sig.json(fragmented))
                          .str()
                          .c_str());
  return 0;
}

// ---- traced mode: decorators ------------------------------------------------

struct LayerClock {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
  LayerClock& operator+=(const LayerClock& o) {
    calls += o.calls;
    ns += o.ns;
    return *this;
  }
  LayerClock operator-(const LayerClock& o) const { return {calls - o.calls, ns - o.ns}; }
};

// Layers timed from outside: the agent's message handlers by protocol, its
// periodic step, and the tracker behind the observer interface.
enum Layer : std::size_t { kRps, kWup, kBeep, kCtrl, kOnCycle, kObserver, kNumLayers };
constexpr const char* kLayerNames[kNumLayers] = {
    "gossip.rps", "gossip.wup", "beep", "sim.ctrl", "whatsup.on_cycle", "metrics.observer"};
using LayerClocks = std::array<LayerClock, kNumLayers>;

class ScopedClock {
 public:
  explicit ScopedClock(LayerClock& clock) : clock_(clock), start_(now_ns()) {}
  ~ScopedClock() {
    clock_.ns += now_ns() - start_;
    ++clock_.calls;
  }
  ScopedClock(const ScopedClock&) = delete;
  ScopedClock& operator=(const ScopedClock&) = delete;

 private:
  LayerClock& clock_;
  std::uint64_t start_;
};

Layer layer_of(net::MsgType type) {
  switch (net::protocol_of(type)) {
    case net::Protocol::kRps: return kRps;
    case net::Protocol::kWup: return kWup;
    case net::Protocol::kBeep: return kBeep;
    case net::Protocol::kCtrl: return kCtrl;
  }
  return kCtrl;
}

// Forwards every Agent call to a WhatsUpAgent and times it. The clocks are
// per node, so they need no synchronization: one worker runs a node per
// phase. publish() is left to the sim.publish span around Engine::publish.
class TimedAgent final : public sim::Agent {
 public:
  TimedAgent(NodeId self, const WhatsUpConfig& config, const sim::Opinions& opinions)
      : inner_(self, config, opinions) {}

  void on_cycle(sim::Context& ctx) override {
    ScopedClock clock(clocks_[kOnCycle]);
    inner_.on_cycle(ctx);
  }
  void on_message(sim::Context& ctx, const net::Message& message) override {
    ScopedClock clock(clocks_[layer_of(message.type)]);
    inner_.on_message(ctx, message);
  }
  void publish(sim::Context& ctx, ItemIdx index, ItemId id) override {
    inner_.publish(ctx, index, id);
  }
  void on_recover(sim::Context& ctx) override { inner_.on_recover(ctx); }

  WhatsUpAgent& inner() { return inner_; }
  const WhatsUpAgent& inner() const { return inner_; }
  const LayerClock& clock(Layer layer) const { return clocks_[layer]; }

 private:
  WhatsUpAgent inner_;
  std::array<LayerClock, kOnCycle + 1> clocks_{};
};

// Times every callback into the tracker. The engine replays observer
// events on the main thread at each barrier, so one clock suffices.
class TimedObserver final : public sim::DisseminationObserver {
 public:
  explicit TimedObserver(metrics::Tracker& tracker) : tracker_(tracker) {}

  void on_delivery(NodeId user, ItemIdx item, int hops, bool via_dislike,
                   int dislike_count) override {
    ScopedClock c(clock_);
    tracker_.on_delivery(user, item, hops, via_dislike, dislike_count);
  }
  void on_opinion(NodeId user, ItemIdx item, bool liked) override {
    ScopedClock c(clock_);
    tracker_.on_opinion(user, item, liked);
  }
  void on_forward(NodeId user, ItemIdx item, int hops, bool liked,
                  std::size_t n_targets) override {
    ScopedClock c(clock_);
    tracker_.on_forward(user, item, hops, liked, n_targets);
  }
  void on_duplicate(NodeId user, ItemIdx item) override {
    ScopedClock c(clock_);
    tracker_.on_duplicate(user, item);
  }

  const LayerClock& clock() const { return clock_; }

 private:
  metrics::Tracker& tracker_;
  LayerClock clock_;
};

// Times the barrier exchange and counts the bytes shipped to peers.
class TimedTransport final : public sim::Transport {
 public:
  explicit TimedTransport(sim::Transport& inner) : inner_(inner) {}

  std::size_t fragments() const override { return inner_.fragments(); }
  std::size_t fragment_id() const override { return inner_.fragment_id(); }
  std::vector<std::vector<std::uint8_t>> exchange(
      const std::vector<std::vector<std::uint8_t>>& out) override {
    for (std::size_t f = 0; f < out.size(); ++f) {
      if (f != inner_.fragment_id()) bytes_out_ += out[f].size();
    }
    ScopedClock c(clock_);
    return inner_.exchange(out);
  }

  const LayerClock& clock() const { return clock_; }
  std::uint64_t bytes_out() const { return bytes_out_; }

 private:
  sim::Transport& inner_;
  LayerClock clock_;
  std::uint64_t bytes_out_ = 0;
};

// ---- traced mode: the replica -----------------------------------------------

struct CycleRecord {
  std::uint64_t start_ns = 0;
  std::uint64_t publish_end_ns = 0;  // = sim.run_cycle start
  std::uint64_t end_ns = 0;
  LayerClocks layers{};  // this cycle's share of each layer
};

// Per-fragment totals that a forked worker ships back to fragment 0 through
// the u64 series run_partitioned sums; each fragment writes its own block.
enum Field : std::size_t {
  kLayerCalls = 0,                    // kNumLayers entries
  kLayerNs = kLayerCalls + kNumLayers,  // kNumLayers entries
  kExchangeCalls = kLayerNs + kNumLayers,
  kExchangeNs,
  kBytesOut,
  kSerializeNs,
  kRouted,
  kDelivered,
  kOverflow,
  kNetMessages,                               // net::kNumProtocols entries
  kNetBytes = kNetMessages + net::kNumProtocols,  // net::kNumProtocols entries
  kBlockSize = kNetBytes + net::kNumProtocols,
};
using Block = std::array<std::uint64_t, kBlockSize>;

struct Replica {
  std::uint64_t boot_begin_ns = 0;
  std::uint64_t boot_end_ns = 0;
  std::uint64_t collect_begin_ns = 0;
  std::uint64_t collect_end_ns = 0;
  std::vector<CycleRecord> cycles;
  Block block{};
  obs::Snapshot stats;  // this fragment's registry + absorbed gauges
  std::size_t relia_tracked = 0;
  std::size_t relia_retransmits = 0;
  std::size_t relia_expired = 0;
  Signature sig;
};

LayerClocks sum_clocks(sim::Engine& engine, const TimedObserver& observer) {
  LayerClocks total{};
  for (NodeId v = 0; v < engine.num_nodes(); ++v) {
    const auto* agent = static_cast<const TimedAgent*>(engine.agent_ptr(v));
    if (agent == nullptr) continue;  // owned by another fragment
    for (std::size_t l = 0; l <= kOnCycle; ++l) total[l] += agent->clock(Layer(l));
  }
  total[kObserver] = observer.clock();
  return total;
}

// run_protocol's WhatsUp path (no scenario), rebuilt from public calls with
// the decorators in place. Must draw exactly the RNG sequence run_protocol
// draws; run.py compares the signatures.
Replica replay(const analysis::RunConfig& config, const data::Workload& base,
               TimedTransport* transport) {
  Replica r;
  data::Workload workload = base;
  Rng rng(config.seed);
  workload.schedule_publications(config.warmup_cycles,
                                 config.warmup_cycles + config.publish_cycles - 1, rng);
  workload.spread_publication_storms(config.publish_spread);

  sim::Engine::Config engine_config;
  engine_config.seed = rng.next_u64();
  engine_config.network = config.network;
  engine_config.threads = config.threads;
  engine_config.shard_nodes = config.shard_nodes;
  engine_config.transport = transport;
  sim::Engine engine(engine_config);
  const bool fragmented = engine.fragments() > 1;
  const analysis::WorkloadOpinions opinions(workload);

  Params params = config.params;
  params.f_like = config.fanout;
  WhatsUpConfig wu;
  wu.params = params;
  wu.metric = analysis::metric_of(config.approach);
  wu.reliability = config.reliability;
  wu.hygiene = config.view_hygiene;
  const std::size_t n = workload.num_users();

  r.boot_begin_ns = now_ns();
  engine.bootstrap(n, [&](NodeId v, Rng& boot_rng) -> std::unique_ptr<sim::Agent> {
    auto agent = std::make_unique<TimedAgent>(v, wu, opinions);
    std::vector<net::Descriptor> seed;
    const auto k = static_cast<std::size_t>(params.rps_view_size);
    seed.reserve(k);
    for (std::size_t picked = 0; picked < k && n > 1; ++picked) {
      NodeId peer = v;
      while (peer == v) peer = static_cast<NodeId>(boot_rng.index(n));
      seed.push_back(net::Descriptor{peer, -1, nullptr});
    }
    agent->inner().bootstrap_rps(std::move(seed));
    return agent;
  });
  r.boot_end_ns = now_ns();

  metrics::Tracker tracker(n, workload.num_items());
  tracker.attach(engine);
  TimedObserver observer(tracker);
  engine.set_observer(&observer);

  std::map<Cycle, std::vector<ItemIdx>> calendar;
  for (const data::NewsSpec& spec : workload.news) {
    if (spec.publish_at != kNoCycle) {
      calendar[spec.publish_at].push_back(spec.index);
      tracker.set_publish_cycle(spec.index, spec.publish_at);
    }
  }

  const Cycle total = config.total_cycles();
  r.cycles.reserve(static_cast<std::size_t>(total));
  LayerClocks before{};
  for (Cycle c = 0; c < total; ++c) {
    CycleRecord rec;
    rec.start_ns = now_ns();
    if (const auto it = calendar.find(c); it != calendar.end()) {
      for (ItemIdx item : it->second) {
        engine.publish(workload.news[item].source, item, workload.news[item].id);
      }
    }
    rec.publish_end_ns = now_ns();
    engine.run_cycle();
    rec.end_ns = now_ns();
    const LayerClocks after = sum_clocks(engine, observer);
    for (std::size_t l = 0; l < kNumLayers; ++l) rec.layers[l] = after[l] - before[l];
    before = after;
    r.cycles.push_back(rec);
  }

  r.collect_begin_ns = now_ns();
  std::vector<ItemIdx> measured;
  const Cycle measure_from = config.warmup_cycles + config.measure_margin;
  for (const data::NewsSpec& spec : workload.news) {
    if (spec.publish_at >= measure_from) measured.push_back(spec.index);
  }
  std::vector<HybridSet> reached;
  metrics::Scores scores;
  if (!fragmented) {
    reached = tracker.reached_sets();
    scores = metrics::compute_scores(workload, reached, measured, &engine);
  }
  r.collect_end_ns = now_ns();

  // Untimed bookkeeping: signature, registry, memory and traffic readings.
  const net::Traffic& traffic = engine.traffic();
  r.sig.msgs_per_user = static_cast<double>(traffic.total_messages()) / static_cast<double>(n);
  if (fragmented) {
    r.sig.final_digest = tracker.digest();
  } else {
    r.sig.recall = scores.recall;
    r.sig.precision = scores.precision;
    r.sig.f1 = scores.f1;
    r.sig.latency = tracker.mean_latency();
    r.sig.reach_fp = reach_fingerprint(reached);
  }
  r.stats = obs::Snapshot::collect();
  r.stats.absorb(engine);
  r.stats.absorb(tracker);
  r.stats.absorb_arena();

  const LayerClocks totals = sum_clocks(engine, observer);
  for (std::size_t l = 0; l < kNumLayers; ++l) {
    r.block[kLayerCalls + l] = totals[l].calls;
    r.block[kLayerNs + l] = totals[l].ns;
  }
  if (transport != nullptr) {
    r.block[kExchangeCalls] = transport->clock().calls;
    r.block[kExchangeNs] = transport->clock().ns;
    r.block[kBytesOut] = transport->bytes_out();
  }
  r.block[kSerializeNs] = r.stats.value("transport.serialize_ns");
  r.block[kRouted] = r.stats.value("engine.route.messages");
  r.block[kDelivered] = r.stats.value("engine.deliver.messages");
  r.block[kOverflow] = r.stats.value("engine.deliver.overflow_dropped");
  for (std::size_t p = 0; p < net::kNumProtocols; ++p) {
    r.block[kNetMessages + p] = traffic.messages(static_cast<net::Protocol>(p));
    r.block[kNetBytes + p] = traffic.bytes(static_cast<net::Protocol>(p));
  }
  for (NodeId v = 0; v < engine.num_nodes(); ++v) {
    const auto* agent = static_cast<const TimedAgent*>(engine.agent_ptr(v));
    if (agent == nullptr) continue;
    const sim::RetransmitQueue::Stats& s = agent->inner().retransmit_queue().stats();
    r.relia_tracked += s.tracked;
    r.relia_retransmits += s.retransmits;
    r.relia_expired += s.expired;
  }
  return r;
}

// ---- traced mode: spans -----------------------------------------------------

struct Span {
  const char* name = "";
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = none
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int track = 0;  // 0 = this file's call sites; 1 + layer for per-cycle aggregates
  const LayerClock* aggregate = nullptr;
};

// Builds the span tree from the replica's timestamps: run -> setup
// (dataset.generate, sim.bootstrap), cycle x N (sim.publish, sim.run_cycle,
// one aggregate child per layer), collect. An aggregate span starts with
// sim.run_cycle and lasts busy_ns / threads; its args carry the exact calls
// and busy_ns.
std::vector<Span> build_spans(const Replica& r, std::uint64_t gen_begin, std::uint64_t gen_end,
                              unsigned threads) {
  std::vector<Span> spans;
  const auto add = [&](const char* name, std::uint32_t parent, std::uint64_t start,
                       std::uint64_t end) {
    Span s;
    s.name = name;
    s.id = static_cast<std::uint32_t>(spans.size() + 1);
    s.parent = parent;
    s.start_ns = start;
    s.end_ns = end;
    spans.push_back(std::move(s));
    return spans.back().id;
  };
  const std::uint32_t run = add("run", 0, gen_begin, r.collect_end_ns);
  const std::uint32_t setup = add("setup", run, gen_begin, r.boot_end_ns);
  add("dataset.generate", setup, gen_begin, gen_end);
  add("sim.bootstrap", setup, r.boot_begin_ns, r.boot_end_ns);
  for (const CycleRecord& c : r.cycles) {
    const std::uint32_t cycle = add("cycle", run, c.start_ns, c.end_ns);
    add("sim.publish", cycle, c.start_ns, c.publish_end_ns);
    add("sim.run_cycle", cycle, c.publish_end_ns, c.end_ns);
    for (std::size_t l = 0; l < kNumLayers; ++l) {
      const unsigned share = l == kObserver ? 1 : threads;
      add(kLayerNames[l], cycle, c.publish_end_ns, c.publish_end_ns + c.layers[l].ns / share);
      spans.back().track = static_cast<int>(l + 1);
      spans.back().aggregate = &c.layers[l];
    }
  }
  add("collect", run, r.collect_begin_ns, r.collect_end_ns);
  return spans;
}

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        std::uint64_t run_id, const Shape& shape, std::uint64_t seed) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const std::uint64_t origin = spans.front().start_ns;
  const auto us = [](std::uint64_t ns) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e3);
    return std::string(buf);
  };
  out << "{\"otherData\":{\"run_id\":\"" << hex(run_id) << "\",\"workload\":\""
      << shape.name << "\",\"seed\":" << seed << "},\"traceEvents\":[";
  for (std::size_t t = 0; t <= kNumLayers; ++t) {
    out << (t == 0 ? "" : ",") << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
        << t << ",\"args\":{\"name\":\"" << (t == 0 ? "wbench" : kLayerNames[t - 1])
        << "\"}}";
  }
  for (const Span& s : spans) {
    out << ",{\"name\":\"" << s.name << "\",\"cat\":\"e2e\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.track << ",\"ts\":" << us(s.start_ns - origin)
        << ",\"dur\":" << us(s.end_ns - s.start_ns) << ",\"args\":{\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"run_id\":\"" << hex(run_id) << "\"";
    if (s.aggregate != nullptr) {
      out << ",\"calls\":" << s.aggregate->calls << ",\"busy_ns\":" << s.aggregate->ns;
    }
    out << "}}";
  }
  out << "]}\n";
}

// ---- traced mode: per-layer metrics -----------------------------------------

double percentile(std::vector<double> v, double pct) {
  std::sort(v.begin(), v.end());
  const double rank = pct / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double hist_sum_s(const obs::Snapshot& stats, std::string_view name) {
  const obs::MetricValue* m = stats.find(name);
  return m == nullptr ? 0.0 : seconds(m->sum);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// `blocks[f]` is fragment f's block; `r` is fragment 0's own replica.
JsonObject layer_metrics(const Replica& r, const std::vector<Block>& blocks, const Shape& shape,
                         double nodes, double gen_s) {
  JsonObject m;
  const double cycles = static_cast<double>(r.cycles.size());
  const double threads = shape.threads;
  Block sum{};
  for (const Block& b : blocks) {
    for (std::size_t i = 0; i < kBlockSize; ++i) sum[i] += b[i];
  }

  m.num("dataset.generate_s", gen_s);
  m.num("sim.bootstrap_s", seconds(r.boot_end_ns - r.boot_begin_ns));
  m.num("analysis.collect_s", seconds(r.collect_end_ns - r.collect_begin_ns));

  std::vector<double> cycle_ms;
  double run_cycle_s = 0.0;
  for (const CycleRecord& c : r.cycles) {
    cycle_ms.push_back(static_cast<double>(c.end_ns - c.publish_end_ns) / 1e6);
    run_cycle_s += seconds(c.end_ns - c.publish_end_ns);
  }
  // Tail: the highest whole percentile with at least ten cycles beyond it.
  const double tail_pct = std::max(50.0, std::floor(100.0 * (1.0 - 10.0 / cycles)));
  m.num("sim.cycle_ms.p50", percentile(cycle_ms, 50.0));
  m.num("sim.cycle_ms.tail", percentile(cycle_ms, tail_pct));
  m.num("sim.cycle_ms.tail_pct", tail_pct);
  m.num("sim.cycle_ms.n", cycles);

  // Fragment 0's own layers against its own run_cycle wall.
  double busy_s = 0.0;
  for (std::size_t l = 0; l < kNumLayers; ++l) busy_s += seconds(blocks[0][kLayerNs + l]);
  const double capacity_s = run_cycle_s * threads;
  m.num("sim.self_s", capacity_s - busy_s);
  m.num("sim.self_frac", ratio(capacity_s - busy_s, capacity_s));
  const double deliver_s = hist_sum_s(r.stats, "engine.phase.deliver_ns");
  const double activate_s = hist_sum_s(r.stats, "engine.phase.activate_ns");
  const double commit_s = hist_sum_s(r.stats, "engine.barrier.commit_ns");
  const double flush_s = hist_sum_s(r.stats, "engine.barrier.flush_ns");
  const double shard_s = hist_sum_s(r.stats, "engine.shard.deliver_ns") +
                         hist_sum_s(r.stats, "engine.shard.activate_ns");
  m.num("sim.worker_busy_frac", ratio(shard_s, (deliver_s + activate_s) * threads));
  m.num("sim.phase.deliver_s", deliver_s);
  m.num("sim.phase.activate_s", activate_s);
  m.num("sim.barrier.commit_s", commit_s);
  m.num("sim.barrier.flush_s", flush_s);
  // Accounting closure: the share of the run_cycle wall timed here that
  // the registry's phase and barrier timers do not cover.
  const double accounted = deliver_s + activate_s + commit_s + flush_s;
  m.num("trace.closure_frac", ratio(run_cycle_s - accounted, run_cycle_s));

  m.num("sim.messages.routed", static_cast<double>(sum[kRouted]));
  m.num("sim.messages.delivered", static_cast<double>(sum[kDelivered]));
  m.num("sim.messages.overflow_dropped", static_cast<double>(sum[kOverflow]));
  m.num("sim.mailbox.bucket_peak",
        static_cast<double>(r.stats.value("engine.mailbox.bucket_peak")));
  for (const char* part : {"mailbox", "payload", "outbox", "pool", "scratch", "arena"}) {
    const std::string name = std::string(part) + "_bytes";
    m.num("sim.mem." + name + "_per_node",
          static_cast<double>(r.stats.value("engine.mem." + name)) / nodes);
  }

  for (std::size_t l = 0; l < kNumLayers; ++l) {
    const std::string name = kLayerNames[l];
    const double calls = static_cast<double>(sum[kLayerCalls + l]);
    const double ns = static_cast<double>(sum[kLayerNs + l]);
    m.num(name + ".busy_s", ns / 1e9);
    m.num(name + ".calls", calls);
    if (l == kRps || l == kWup || l == kBeep) m.num(name + ".ns_per_call", ratio(ns, calls));
  }

  const double hits = static_cast<double>(r.stats.value("profile.scratch.hits"));
  const double misses = static_cast<double>(r.stats.value("profile.scratch.misses"));
  m.num("profile.scratch.hit_rate", ratio(hits, hits + misses));
  m.num("profile.scratch.misses", misses);
  m.num("profile.arena.resident_bytes_per_node",
        static_cast<double>(r.stats.value("arena.blob_resident_bytes") +
                            r.stats.value("arena.stamp_resident_bytes")) /
            nodes);

  m.num("sim.reliability.tracked", static_cast<double>(r.relia_tracked));
  m.num("sim.reliability.retransmits", static_cast<double>(r.relia_retransmits));
  m.num("sim.reliability.expired", static_cast<double>(r.relia_expired));
  m.num("metrics.tracker.resident_bytes_per_node",
        static_cast<double>(r.stats.value("tracker.resident_bytes")) / nodes);

  constexpr const char* kProtocols[net::kNumProtocols] = {"rps", "wup", "beep", "ctrl"};
  for (std::size_t p = 0; p < net::kNumProtocols; ++p) {
    m.num(std::string("net.messages.") + kProtocols[p],
          static_cast<double>(sum[kNetMessages + p]) / (nodes * cycles));
    m.num(std::string("net.bytes.") + kProtocols[p],
          static_cast<double>(sum[kNetBytes + p]) / (nodes * cycles));
  }

  double exchange_max_ns = 0.0;
  double busy_max = 0.0;
  double busy_total = 0.0;
  for (const Block& b : blocks) {
    exchange_max_ns = std::max(exchange_max_ns, static_cast<double>(b[kExchangeNs]));
    double busy = 0.0;
    for (std::size_t l = 0; l < kObserver; ++l) busy += static_cast<double>(b[kLayerNs + l]);
    busy_max = std::max(busy_max, busy);
    busy_total += busy;
  }
  const double fragments = static_cast<double>(blocks.size());
  m.num("transport.exchange_s", exchange_max_ns / 1e9);
  m.num("transport.exchange_calls", static_cast<double>(blocks[0][kExchangeCalls]));
  m.num("transport.bytes_out_per_cycle", static_cast<double>(sum[kBytesOut]) / cycles);
  m.num("transport.serialize_s", static_cast<double>(sum[kSerializeNs]) / 1e9);
  m.num("transport.busy_imbalance",
        fragments > 1 ? ratio(busy_max, busy_total / fragments) - 1.0 : 0.0);
  return m;
}

int run_traced(const Shape& shape, std::uint64_t seed, const std::string& trace_out) {
  const std::uint64_t gen_begin = now_ns();
  const data::Workload workload = generate(shape);
  const std::uint64_t gen_end = now_ns();
  const analysis::RunConfig config = run_config(shape, seed);
  obs::Registry::instance().reset();
  obs::set_enabled(true);

  Replica own;  // fragment 0 (this process)
  std::vector<Block> blocks(shape.fragments);
  const std::uint64_t t0 = now_ns();
  if (shape.fragments > 1) {
    // Series layout: [final digest, block 0, block 1, ...]; every fragment
    // fills only its own block, so the element-wise sum carries each
    // fragment's block intact.
    const std::vector<std::uint64_t> series = bench::run_partitioned(
        shape.fragments, [&](sim::Transport& transport) {
          analysis::RunConfig worker = config;
          worker.partitions = static_cast<int>(shape.fragments);
          TimedTransport timed(transport);
          Replica r = replay(worker, workload, &timed);
          const std::size_t f = transport.fragment_id();
          std::vector<std::uint64_t> out(1 + shape.fragments * kBlockSize, 0);
          out[0] = r.sig.final_digest;
          std::copy(r.block.begin(), r.block.end(), out.begin() + 1 + f * kBlockSize);
          if (f == 0) own = std::move(r);
          return out;
        });
    std::uint64_t messages = 0;
    for (std::size_t f = 0; f < shape.fragments; ++f) {
      std::copy_n(series.begin() + 1 + f * kBlockSize, kBlockSize, blocks[f].begin());
      for (std::size_t p = 0; p < net::kNumProtocols; ++p) {
        messages += blocks[f][kNetMessages + p];
      }
    }
    own.sig.final_digest = series[0];
    own.sig.msgs_per_user =
        static_cast<double>(messages) / static_cast<double>(workload.num_users());
  } else {
    own = replay(config, workload, nullptr);
    blocks[0] = own.block;
  }
  // Comparable with a timed rep's run_protocol call: up to the end of the
  // collect span, leaving out the replica's untimed bookkeeping.
  const std::uint64_t wall = own.collect_end_ns - t0;
  obs::set_enabled(false);

  const double nodes = static_cast<double>(workload.num_users());
  JsonObject layers =
      layer_metrics(own, blocks, shape, nodes, seconds(gen_end - gen_begin));
  if (!trace_out.empty()) {
    const std::uint64_t run_id =
        series_fingerprint({seed, gen_begin, static_cast<std::uint64_t>(::getpid())});
    write_chrome_trace(trace_out, build_spans(own, gen_begin, gen_end, shape.threads), run_id,
                       shape, seed);
  }
  std::printf("%s\n", JsonObject()
                          .num("wall_s", seconds(wall))
                          .num("cycles", config.total_cycles())
                          .raw("sig", own.sig.json(shape.fragments > 1))
                          .raw("layers", layers.str())
                          .str()
                          .c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: wbench timed|traced --workload W --seed S [--digests] "
               "[--trace-out FILE] [--smoke]\n");
  return 2;
}

}  // namespace
}  // namespace whatsup::e2e

int main(int argc, char** argv) {
  using namespace whatsup::e2e;
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::string workload;
  std::string trace_out;
  std::uint64_t seed = 11;
  bool digests = false;
  bool smoke = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else if (arg == "--digests") {
      digests = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      std::fprintf(stderr, "wbench: unknown argument %s\n", arg.c_str());
      return usage();
    }
  }
  try {
    const Shape& shape = find_shape(workload, smoke);
    if (mode == "timed") return run_timed(shape, seed, digests);
    if (mode == "traced") return run_traced(shape, seed, trace_out);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wbench: %s\n", e.what());
    return 1;
  }
}
