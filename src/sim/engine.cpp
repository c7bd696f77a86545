#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>

#include "net/wire.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "profile/compact.hpp"
#include "sim/shard.hpp"
#include "sim/transport.hpp"

namespace whatsup::sim {

namespace {

// Tag deriving the per-node stream space from the root seed.
constexpr std::uint64_t kNodeStreamTag = 0x6e6f646573ULL;  // "nodes"

// Tag deriving the fault layer's stream space (burst chains, random
// crashes) from the root seed — disjoint from the node space.
constexpr std::uint64_t kFaultStreamTag = 0x6661756c7473ULL;  // "faults"

// Tag deriving the per-message network-draw stream space: each routed
// message forks (sender, counter·2³² | cycle) and draws its own loss,
// latency, reorder and duplicate decisions from that private stream. This
// is what makes the draw sequence a per-sender pure function of the seed —
// a fragment that routes only its own senders' messages reproduces exactly
// the draws the single-process engine would have made for them.
constexpr std::uint64_t kNetStreamTag = 0x6e6574ULL;  // "net"

// Substream of a node's stream space reserved for the BOOTSTRAP phase.
// Per-cycle streams use the cycle number as the substream; cycles are
// small non-negative values, so this can never collide.
constexpr std::uint64_t kBootstrapSubstream = 0xb007'5742'0000'0000ULL;

// Substream of a node's stream space reserved for the reliability layer
// (retransmission backoff jitter), OR-ed with the cycle number. Disjoint
// from both the per-cycle streams and the bootstrap substream.
constexpr std::uint64_t kReliabilitySubstream = 0x7e11'ab1e'0000'0000ULL;

// Substream of the fault stream space for per-cycle random crash draws.
// Burst chains use (link key, cycle) forks; their substream is always a
// small cycle number, so this can never collide.
constexpr std::uint64_t kCrashSubstream = 0xc4a5'4f4f'0000'0000ULL;

std::uint64_t as_substream(Cycle cycle) {
  return static_cast<std::uint64_t>(
      static_cast<std::uint32_t>(static_cast<std::int64_t>(cycle)));
}

// "<type> message from <from> to <to>" for the endpoint diagnoses.
std::string describe_endpoints(const net::Message& m) {
  const auto name = [](NodeId id) {
    return id == kNoNode ? std::string("kNoNode") : std::to_string(id);
  };
  return net::to_string(m.type) + " message from " + name(m.from) + " to " + name(m.to);
}

// Telemetry ids (obs/registry.hpp), registered once on first use. Lane
// writes are gated on obs::enabled() and never draw RNG, synchronize, or
// reorder work, so fixed-seed trajectories are bit-identical with stats on
// or off (tests/test_obs.cpp holds the engine to this).
struct EngineMetrics {
  obs::MetricId cycles = obs::counter("engine.cycles");
  obs::MetricId delivered = obs::counter("engine.deliver.messages");
  obs::MetricId overflow = obs::counter("engine.deliver.overflow_dropped");
  obs::MetricId routed = obs::counter("engine.route.messages");
  // High-water mark of any mailbox-ring bucket (canonical-order inserts at
  // the barrier, so this is the occupancy the delivery phase will face).
  obs::MetricId mailbox_peak = obs::gauge("engine.mailbox.bucket_peak", "messages");
  // Per-shard phase wall times (recorded on the executing worker's lane)
  // and whole-phase / barrier wall times (main thread).
  obs::HistogramId shard_deliver =
      obs::histogram("engine.shard.deliver_ns", obs::time_bounds_ns(), "ns");
  obs::HistogramId shard_activate =
      obs::histogram("engine.shard.activate_ns", obs::time_bounds_ns(), "ns");
  obs::HistogramId phase_deliver =
      obs::histogram("engine.phase.deliver_ns", obs::time_bounds_ns(), "ns");
  obs::HistogramId phase_activate =
      obs::histogram("engine.phase.activate_ns", obs::time_bounds_ns(), "ns");
  obs::HistogramId flush =
      obs::histogram("engine.barrier.flush_ns", obs::time_bounds_ns(), "ns");
  obs::HistogramId commit =
      obs::histogram("engine.barrier.commit_ns", obs::time_bounds_ns(), "ns");
  // Transport metrics labeled by barrier slot: slot 0 is the staged-send
  // flush, 1 the deliver commit, 2 the activate commit. In-process runs
  // record them too; their exchanges ship and receive nothing.
  obs::HistogramId exchange_ns[3] = {
      obs::histogram("transport.flush.exchange_ns", obs::time_bounds_ns(), "ns"),
      obs::histogram("transport.deliver.exchange_ns", obs::time_bounds_ns(), "ns"),
      obs::histogram("transport.activate.exchange_ns", obs::time_bounds_ns(), "ns")};
  obs::MetricId bytes_out[3] = {
      obs::counter("transport.flush.bytes_out", "bytes"),
      obs::counter("transport.deliver.bytes_out", "bytes"),
      obs::counter("transport.activate.bytes_out", "bytes")};
  obs::MetricId bytes_in[3] = {
      obs::counter("transport.flush.bytes_in", "bytes"),
      obs::counter("transport.deliver.bytes_in", "bytes"),
      obs::counter("transport.activate.bytes_in", "bytes")};
  obs::MetricId serialize_ns = obs::counter("transport.serialize_ns", "ns");
  obs::MetricId serialize_messages = obs::counter("transport.serialize.messages");
  // Burst-loss work, counted at commit on the main thread (exact per seed
  // at any thread count): chains created, and elapsed-cycle steps walked.
  obs::MetricId link_chains = obs::counter("sim.fault.link_chains");
  obs::MetricId chain_steps = obs::counter("sim.fault.chain_steps");
  // Duplicate copies the fault model injected (routed at commit too).
  obs::MetricId duplicated = obs::counter("sim.fault.duplicated");

  static const EngineMetrics& get() {
    static const EngineMetrics m;
    return m;
  }
};

}  // namespace

std::size_t LinkChains::resident_bytes() const {
  std::size_t bytes = 0;
  for (const std::vector<LinkState>& row : rows_) bytes += row.capacity() * sizeof(LinkState);
  return bytes;
}

bool LinkChains::advance(NodeId from, NodeId to, Cycle now,
                         const net::BurstLossModel& burst, const Rng& root) {
  if (from >= rows_.size()) rows_.resize(static_cast<std::size_t>(from) + 1);
  std::vector<LinkState>& row = rows_[from];
  auto it = std::lower_bound(row.begin(), row.end(), to,
                             [](const LinkState& s, NodeId t) { return s.to < t; });
  if (it == row.end() || it->to != to) {
    it = row.insert(it, LinkState{to, static_cast<std::uint32_t>(now), 0});
    obs::add(EngineMetrics::get().link_chains);
  }
  // Lazy advance: one counter-based bernoulli per elapsed cycle, keyed
  // (link, cycle) — the chain is a pure function of the seed and the
  // link's first-use cycle, never of how many messages crossed it.
  const std::uint64_t key = (static_cast<std::uint64_t>(from) << 32) | to;
  const auto target = static_cast<std::uint32_t>(now);
  std::uint32_t cycle = it->cycle;
  bool bad = it->bad != 0;
  if (cycle >= target) return bad;
  obs::add(EngineMetrics::get().chain_steps, target - cycle);
  while (cycle < target) {
    ++cycle;
    Rng step = root.fork(key, as_substream(static_cast<Cycle>(cycle)));
    bad = bad ? !step.bernoulli(burst.p_exit) : step.bernoulli(burst.p_enter);
  }
  it->cycle = cycle;
  it->bad = bad ? 1 : 0;
  return bad;
}

Cycle Context::now() const { return engine_.now(); }
Rng& Context::rng() { return engine_.node_rng(self_); }

DisseminationObserver* Context::observer() {
  if (shard_ != nullptr) {
    return engine_.observer() != nullptr ? &shard_->observer : nullptr;
  }
  return engine_.observer();
}

NodeId Context::random_active_peer(NodeId excluding) {
  return engine_.draw_active_excluding(rng(), self_, excluding);
}

Rng Context::reliability_rng() { return engine_.reliability_rng(self_); }

void Context::send(NodeId to, net::MsgType type, net::Payload payload) {
  net::Message m;
  m.from = self_;
  m.to = to;
  m.type = type;
  m.sent_at = engine_.now();
  m.seq = next_seq_++;
  m.payload = std::move(payload);
  if (shard_ != nullptr) {
    // Parallel phase: buffer; the engine commits at the barrier in
    // canonical (cycle, phase, sender, seq) order.
    shard_->outbox.push_back(std::move(m));
  } else {
    // Main-thread driver (publish, recovery rejoin): staged for the next
    // run_cycle's flush slot.
    engine_.send(std::move(m));
  }
}

Engine::Engine(Config config) : config_(config) {
  Rng root(config_.seed);
  stream_root_ = root.fork(kNodeStreamTag);
  fault_root_ = root.fork(kFaultStreamTag);
  net_root_ = root.fork(kNetStreamTag);
  threads_ = config_.threads != 0
                 ? config_.threads
                 : std::max(1u, std::thread::hardware_concurrency());
  shard_nodes_ = config_.shard_nodes != 0 ? config_.shard_nodes : kDefaultShardNodes;
  transport_ = config_.transport != nullptr ? config_.transport : &in_process_;
  fragments_ = transport_->fragments();
  fragment_ = transport_->fragment_id();
  assert(fragments_ >= 1 && fragment_ < fragments_);
  wire_out_.resize(fragments_);
}

Engine::~Engine() = default;

NodeId Engine::add_agent(std::unique_ptr<Agent> agent) {
  agents_.push_back(std::move(agent));
  active_.push_back(true);
  crashed_.push_back(false);
  const auto id = static_cast<NodeId>(agents_.size() - 1);
  ++num_active_;
  active_ids_.push_back(id);  // registration order is ascending
  node_rng_.emplace_back();
  node_rng_cycle_.push_back(kNoCycle);
  return id;
}

Rng Engine::bootstrap_rng(NodeId id) const {
  return stream_root_.fork(id, kBootstrapSubstream);
}

void Engine::bootstrap(std::size_t count, const AgentFactory& factory) {
  assert(!in_phase_.load(std::memory_order_relaxed) &&
         "bootstrap is a between-cycles, main-thread operation");
  if (count == 0) return;
  const std::size_t n0 = agents_.size();
  const std::size_t n1 = n0 + count;
  // Registry bookkeeping up front (main thread): the parallel pass below
  // only fills pre-sized slots, never grows containers.
  agents_.resize(n1);
  active_.resize(n1, true);
  crashed_.resize(n1, false);
  node_rng_.resize(n1);
  node_rng_cycle_.resize(n1, kNoCycle);
  active_ids_.reserve(n1);
  for (std::size_t v = n0; v < n1; ++v) active_ids_.push_back(static_cast<NodeId>(v));
  num_active_ += count;
  ensure_shards();
  // Construction + seeding per shard on the pool. Each node draws from its
  // own counter-based bootstrap stream, so the result does not depend on
  // which worker builds which shard — or on the shard width.
  run_phase([&](Shard& shard) {
    const auto lo = static_cast<std::size_t>(shard.begin) > n0
                        ? static_cast<std::size_t>(shard.begin)
                        : n0;
    const auto hi = static_cast<std::size_t>(shard.end) < n1
                        ? static_cast<std::size_t>(shard.end)
                        : n1;
    for (std::size_t v = lo; v < hi; ++v) {
      const auto id = static_cast<NodeId>(v);
      // Fragment mode: only materialize the nodes this worker owns. The
      // registry slots of outer nodes stay null — they are addresses, not
      // agents, on this worker (docs/architecture.md "Transport layer").
      if (!owns(id)) continue;
      Rng rng = bootstrap_rng(id);
      agents_[v] = factory(id, rng);
      assert(agents_[v] != nullptr && "bootstrap factory must return an agent");
    }
  });
}

void Engine::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  assert(!in_phase_.load(std::memory_order_relaxed) &&
         "parallel_for must not be nested inside a phase");
  if (n == 0) return;
  if (threads_ > 1 && n > 1) {
    if (pool_ == nullptr) pool_ = std::make_unique<WorkerPool>(threads_);
    pool_->run(n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

void Engine::set_active(NodeId id, bool active) {
  assert(!in_phase_.load(std::memory_order_relaxed) &&
         "set_active must not be called from agent code");
  // Churn machinery reactivating a crashed node clears the crash flag
  // without the recovery hook (documented crash-oblivious reactivation).
  if (active && id < crashed_.size()) crashed_[id] = false;
  if (active_.at(id) == active) return;
  active_[id] = active;
  // Activity flips are rare (churn events), so the ordered-insert cost is
  // noise next to the per-cycle scans it replaces.
  const auto it = std::lower_bound(active_ids_.begin(), active_ids_.end(), id);
  if (active) {
    ++num_active_;
    active_ids_.insert(it, id);
  } else {
    --num_active_;
    active_ids_.erase(it);
  }
}

NodeId Engine::draw_active(Rng& rng, NodeId excluding) const {
  return draw_active_excluding(rng, excluding, kNoNode);
}

NodeId Engine::draw_active_excluding(Rng& rng, NodeId a, NodeId b) const {
  if (a == b) b = kNoNode;
  // Positions of the active exclusions within active_ids_, ascending.
  std::size_t skips[2];
  std::size_t n_skips = 0;
  for (const NodeId ex : {std::min(a, b), std::max(a, b)}) {
    if (ex != kNoNode && ex < active_.size() && active_[ex]) {
      skips[n_skips++] = static_cast<std::size_t>(
          std::lower_bound(active_ids_.begin(), active_ids_.end(), ex) -
          active_ids_.begin());
    }
  }
  const std::size_t n = active_ids_.size() - n_skips;
  if (n == 0) return kNoNode;
  // Closed-form draw: one index over the reduced range, shifted past the
  // excluded slots — exactly uniform, no rejection loop to bias or spin.
  std::size_t idx = rng.index(n);
  for (std::size_t j = 0; j < n_skips; ++j) {
    if (idx >= skips[j]) ++idx;
  }
  return active_ids_[idx];
}

void Engine::crash(NodeId id, Cycle recover_at) {
  assert(!in_phase_.load(std::memory_order_relaxed) &&
         "crash is a between-cycles, main-thread operation");
  if (id >= agents_.size() || crashed_.at(id)) return;
  if (active_.at(id)) set_active(id, false);
  crashed_[id] = true;  // after set_active (which clears the flag on activate)
  if (recover_at != kNoCycle) recoveries_.emplace_back(recover_at, id);
}

void Engine::recover(NodeId id) {
  assert(!in_phase_.load(std::memory_order_relaxed) &&
         "recover is a between-cycles, main-thread operation");
  if (id >= agents_.size() || !crashed_.at(id)) return;
  set_active(id, true);  // clears crashed_ (identically on every fragment)
  if (!owns(id) || agents_[id] == nullptr) return;  // acts only at its owner
  Context ctx(*this, id);  // main-thread: rejoin sends are staged
  agents_[id]->on_recover(ctx);
}

void Engine::process_recoveries() {
  // Collect due entries and apply them in ascending node order — a
  // canonical order independent of how the crashes were scheduled.
  std::vector<NodeId> due;
  std::erase_if(recoveries_, [&](const std::pair<Cycle, NodeId>& r) {
    if (r.first > now_) return false;
    due.push_back(r.second);
    return true;
  });
  if (due.empty()) return;
  std::sort(due.begin(), due.end());
  for (const NodeId id : due) recover(id);
}

void Engine::apply_random_crashes() {
  const double p = config_.network.crash_rate;
  // One counter-based stream per cycle; active nodes draw in ascending id
  // order, so the victim set is a pure function of (seed, cycle, active set).
  Rng rng = fault_root_.fork(as_substream(now_), kCrashSubstream);
  std::vector<NodeId> victims;
  for (const NodeId id : active_ids_) {
    if (rng.bernoulli(p)) victims.push_back(id);
  }
  const Cycle delay = config_.network.crash_recovery;
  for (const NodeId id : victims) {
    crash(id, delay > 0 ? now_ + delay : kNoCycle);
  }
}

Rng& Engine::node_rng(NodeId id) {
  // Per-cycle reseed discipline: the stream is a pure function of
  // (seed, node id, cycle), so a node's draws are independent of how much
  // randomness any other node — or any earlier cycle — consumed.
  if (node_rng_cycle_.at(id) != now_) {
    node_rng_[id] = stream_root_.fork(id, static_cast<std::uint64_t>(
                                             static_cast<std::int64_t>(now_)));
    node_rng_cycle_[id] = now_;
  }
  return node_rng_[id];
}

Rng Engine::reliability_rng(NodeId id) const {
  return stream_root_.fork(id, kReliabilitySubstream | as_substream(now_));
}

void Engine::set_network(const net::NetworkConfig& network) {
  config_.network = network;
  // Chains restart in the good state when a later episode re-enables
  // bursty loss (also reclaims the rows between episodes).
  if (!config_.network.burst.enabled()) link_chains_.clear();
  if (!shards_.empty()) ensure_shards();  // grow mailbox rings if needed
}

std::size_t Engine::window() const {
  // Reordered messages take up to reorder_window extra cycles; the ring
  // must cover the worst-case due offset or late messages would alias
  // into earlier buckets.
  const Cycle reorder =
      config_.network.reorder_rate > 0.0
          ? std::max<Cycle>(config_.network.reorder_window, 1)
          : 0;
  return static_cast<std::size_t>(config_.network.latency + config_.network.jitter +
                                  reorder) +
         2;
}

Shard& Engine::shard_for(NodeId node) {
  // Fast path: shards already cover the node (run_cycle sizes them before
  // its first slot). The slow path serves messages addressed to ids that
  // are not registered yet, as the old global ring did.
  const std::size_t idx = shard_index(node);
  if (idx >= shards_.size()) {
    const std::size_t w = window();
    while (shards_.size() <= idx) {
      const auto begin = static_cast<NodeId>(shards_.size() * shard_nodes_);
      shards_.push_back(std::make_unique<Shard>(
          begin, static_cast<NodeId>(begin + shard_nodes_), w));
    }
  }
  return *shards_[idx];
}

void Engine::ensure_shards() {
  const std::size_t w = window();
  const std::size_t needed =
      agents_.empty() ? 0 : (agents_.size() + shard_nodes_ - 1) / shard_nodes_;
  while (shards_.size() < needed) {
    const auto begin = static_cast<NodeId>(shards_.size() * shard_nodes_);
    shards_.push_back(std::make_unique<Shard>(
        begin, static_cast<NodeId>(begin + shard_nodes_), w));
  }
  for (auto& shard : shards_) shard->grow_window(w, now_);
  // Link snapshot tables, sized from the total node count. Every fragment
  // sees the same count at the same point of the lockstep control plane
  // (between cycles), so a resize empties both ends of every link before
  // either encodes or decodes again: the tables stay mirrored.
  const std::size_t slots = net::snapshot_table_slots(agents_.size());
  if (fragments_ > 1 && slots != link_slots_) {
    link_slots_ = slots;
    link_out_.assign(fragments_, net::SnapshotSendTable());
    link_in_.assign(fragments_, net::SnapshotRecvTable());
    for (std::size_t f = 0; f < fragments_; ++f) {
      if (f == fragment_) continue;
      link_out_[f] = net::SnapshotSendTable(slots);
      link_in_[f] = net::SnapshotRecvTable(slots);
    }
  }
}

Rng Engine::message_rng(NodeId from) {
  if (from >= send_count_.size()) {
    // Sends may precede agent registration (same contract as shard_for).
    send_count_.resize(static_cast<std::size_t>(from) + 1, 0);
    send_count_cycle_.resize(static_cast<std::size_t>(from) + 1, kNoCycle);
  }
  if (send_count_cycle_[from] != now_) {
    send_count_[from] = 0;
    send_count_cycle_[from] = now_;
  }
  const std::uint64_t substream =
      (static_cast<std::uint64_t>(send_count_[from]++) << 32) | as_substream(now_);
  return net_root_.fork(from, substream);
}

void Engine::route_message(net::Message message) {
  // kNoNode is the unaddressed default of net::Message: routing it would
  // size the per-sender tables and the shard vector to 2^32 entries.
  if (message.from == kNoNode || message.to == kNoNode) {
    throw std::invalid_argument("sim::Engine: cannot route " + describe_endpoints(message) +
                                " sent at cycle " + std::to_string(message.sent_at) +
                                ": unaddressed endpoint");
  }
  const net::Protocol protocol = net::protocol_of(message.type);
  traffic_.record_sent(protocol, config_.size_model.bytes(message));
  obs::add(EngineMetrics::get().routed);
  // The message's private network-draw stream: keyed by sender, cycle and
  // the sender's send counter, never by global draw order — so fragments
  // routing disjoint sender sets make exactly the draws P=1 would.
  Rng mrng = message_rng(message.from);
  // Queues a survivor: owned destinations go to the local commit batch,
  // outer ones are serialized for the owner fragment's barrier exchange.
  const auto emit = [&](Cycle due, net::Message&& m) {
    if (owns(m.to)) {
      pending_local_.push_back(PendingMessage{due, std::move(m)});
    } else if (const std::size_t f = m.to % fragments_; !obs::enabled()) {
      net::encode_envelope(wire_out_[f], due, m, link_out_[f]);
    } else {
      const EngineMetrics& om = EngineMetrics::get();
      const std::uint64_t t0 = obs::now_ns();
      net::encode_envelope(wire_out_[f], due, m, link_out_[f]);
      obs::add(om.serialize_ns, obs::now_ns() - t0);
      obs::add(om.serialize_messages);
    }
  };
  if (config_.network.loss_rate > 0.0 && mrng.bernoulli(config_.network.loss_rate)) {
    traffic_.record_dropped(protocol);
    return;
  }
  // Regional partition episode (scenario engine): cross-region messages
  // are cut. Checked only while a partition is active, so the message
  // stream's draw sequence — and every baseline trajectory — is untouched
  // otherwise.
  if (config_.network.partitioned() &&
      (message.from < config_.network.partition_nodes) !=
          (message.to < config_.network.partition_nodes)) {
    if (config_.network.partition_cross_loss >= 1.0 ||
        mrng.bernoulli(config_.network.partition_cross_loss)) {
      traffic_.record_dropped(protocol);
      return;
    }
  }
  // Gilbert–Elliott bursty loss: the link's chain state picks the drop
  // probability. Checked only while the burst model is enabled, so the
  // message stream's draw sequence — and every baseline trajectory — is
  // untouched otherwise (same contract as the partition gate above).
  if (config_.network.burst.enabled()) {
    const bool bad = link_chains_.advance(message.from, message.to, now_,
                                          config_.network.burst, fault_root_);
    const double p = bad ? config_.network.burst.loss_bad : config_.network.burst.loss_good;
    if (p > 0.0 && mrng.bernoulli(p)) {
      traffic_.record_dropped(protocol);
      return;
    }
  }
  const auto draw_delay = [&] {
    Cycle delay = config_.network.latency;
    if (config_.network.jitter > 0) {
      delay += static_cast<Cycle>(mrng.uniform_int(0, config_.network.jitter));
    }
    return std::max<Cycle>(delay, 1);
  };
  Cycle delay = draw_delay();
  // Reordering: a detoured message takes 1..reorder_window extra cycles,
  // letting later sends overtake it.
  if (config_.network.reorder_rate > 0.0 &&
      mrng.bernoulli(config_.network.reorder_rate)) {
    delay += static_cast<Cycle>(
        mrng.uniform_int(1, std::max<Cycle>(config_.network.reorder_window, 1)));
  }
  // Duplication: the copy takes its own latency draw, so it may land
  // before or after the original. Receivers are responsible for idempotent
  // handling (the SIR seen-set; an acked repeat is dropped there).
  if (config_.network.duplicate_rate > 0.0 &&
      mrng.bernoulli(config_.network.duplicate_rate)) {
    obs::add(EngineMetrics::get().duplicated);
    net::Message copy = message;
    traffic_.record_sent(protocol, config_.size_model.bytes(copy));
    emit(now_ + draw_delay(), std::move(copy));
  }
  emit(now_ + delay, std::move(message));
}

void Engine::finish_slot() {
  const bool obs_on = obs::enabled();
  {
    // Barrier: swap this slot's serialized batches with every peer and
    // append the decoded envelopes (ascending fragment order) to the local
    // batch. Decode failures are fatal — workers are lockstep replicas.
    WUP_TRACE_SCOPE("exchange");
    const EngineMetrics& om = EngineMetrics::get();
    const int slot = slot_kind_ >= 0 && slot_kind_ < 3 ? slot_kind_ : 0;
    std::uint64_t out_bytes = 0;
    if (obs_on) {
      for (const auto& batch : wire_out_) out_bytes += batch.size();
    }
    const std::uint64_t t0 = obs_on ? obs::now_ns() : 0;
    std::vector<std::vector<std::uint8_t>> frames = transport_->exchange(wire_out_);
    if (obs_on) {
      obs::observe(om.exchange_ns[slot], obs::now_ns() - t0);
      obs::add(om.bytes_out[slot], out_bytes);
      std::uint64_t in_bytes = 0;
      for (std::size_t f = 0; f < frames.size(); ++f) {
        if (f != fragment_) in_bytes += frames[f].size();
      }
      obs::add(om.bytes_in[slot], in_bytes);
    }
    for (auto& batch : wire_out_) batch.clear();
    for (auto& link : link_out_) link.end_batch();
    for (std::size_t f = 0; f < frames.size(); ++f) {
      if (f == fragment_) continue;
      net::WireReader reader(frames[f].data(), frames[f].size());
      while (reader.ok() && reader.remaining() > 0) {
        PendingMessage p;
        if (!net::decode_envelope(reader, p.due, p.message, link_in_[f])) {
          throw std::runtime_error(
              "sim::Engine: corrupt envelope batch from peer fragment");
        }
        // A checksummed envelope can still name kNoNode or another
        // fragment's node; bucketing it would grow shards_ toward 2^32 ids.
        const net::Message& m = p.message;
        if (m.from == kNoNode || m.to == kNoNode || !owns(m.to)) {
          throw std::runtime_error(
              "sim::Engine: misaddressed envelope from peer fragment " + std::to_string(f) +
              ": " + describe_endpoints(m) + " (kNoNode, or a recipient fragment " +
              std::to_string(fragment_) + " does not own)");
        }
        pending_local_.push_back(std::move(p));
      }
      link_in_[f].end_batch();
    }
  }
  // Restore the canonical commit order: ascending sender, stable within a
  // sender (all of one sender's messages come from exactly one batch, so
  // stability preserves its outbox/seq order). Phase commits route shards
  // in ascending order, so a single fragment's batch is usually already
  // sorted and the sort is skipped.
  const auto by_sender = [](const PendingMessage& a, const PendingMessage& b) {
    return a.message.from < b.message.from;
  };
  if (!std::is_sorted(pending_local_.begin(), pending_local_.end(), by_sender)) {
    std::stable_sort(pending_local_.begin(), pending_local_.end(), by_sender);
  }
  std::size_t bucket_peak = 0;
  for (PendingMessage& p : pending_local_) {
    auto& bucket = shard_for(p.message.to).bucket(p.due);
    bucket.push_back(std::move(p.message));
    if (obs_on && bucket.size() > bucket_peak) bucket_peak = bucket.size();
  }
  if (bucket_peak != 0) {
    obs::gauge_max(EngineMetrics::get().mailbox_peak, bucket_peak);
  }
  pending_local_.clear();
}

void Engine::flush_staged() {
  // Runs even when nothing is staged: the slot's barrier exchange must
  // happen on every worker, also when only a peer staged messages.
  assert(pending_local_.empty());
  for (net::Message& m : staged_) route_message(std::move(m));
  staged_.clear();
  finish_slot();
}

void Engine::send(net::Message message) {
  // Agent code must send through Context::send (which buffers into the
  // shard outbox); staging here from a worker would race on staged_.
  assert(!in_phase_.load(std::memory_order_relaxed) &&
         "Engine::send must not be called from agent code — use Context::send");
  staged_.push_back(std::move(message));
}

void Engine::publish(NodeId source, ItemIdx index, ItemId id) {
  assert(source < agents_.size());
  assert(!in_phase_.load(std::memory_order_relaxed) &&
         "publish is a between-cycles, main-thread operation");
  if (!active_[source]) return;
  // Fragment mode: every worker sees the same publication calendar, but
  // only the source's owner runs the agent (its sends are staged and reach
  // other fragments at the flush-slot barrier).
  if (!owns(source) || agents_[source] == nullptr) return;
  Context ctx(*this, source);  // main-thread: sends are staged
  agents_[source]->publish(ctx, index, id);
}

void Engine::deliver_shard(Shard& shard) {
  auto& due = shard.bucket(now_);
  if (due.empty()) return;
  // Recorded into the executing worker's own lane — per-shard wall time
  // survives the merge regardless of which thread ran the shard.
  WUP_TRACE_SCOPE("deliver_shard");
  const bool obs_on = obs::enabled();
  const std::uint64_t obs_t0 = obs_on ? obs::now_ns() : 0;
  // Swap the due bucket with the shard's scratch vector so capacities
  // circulate and steady-state cycles never reallocate message storage.
  shard.delivery_batch.clear();
  shard.delivery_batch.swap(due);
  // Group by receiving node (ascending), keeping the canonical commit
  // order within each node. Nodes then shuffle THEIR OWN batch with their
  // per-cycle stream: delivery order per node is a pure function of the
  // seed — independent of thread count AND shard width — while still
  // randomized against send-order artifacts (who sent first no longer
  // decides who wins an inbox-capacity slot or a view merge).
  //
  // The grouping sorts a permutation, not the batch itself: std::sort on
  // (to, index) pairs is in-place and reproduces stable_sort's order
  // exactly, without the batch-sized merge buffer stable_sort allocates —
  // which landed precisely on the storm-cycle RSS peak at the million-node
  // scale (a delivery batch of N messages cost an extra 64·N transient
  // bytes there).
  auto& batch = shard.delivery_batch;
  auto& order = shard.delivery_order;
  order.resize(batch.size());
  for (std::uint32_t n = 0; n < order.size(); ++n) order[n] = n;
  std::sort(order.begin(), order.end(),
            [&batch](std::uint32_t a, std::uint32_t b) {
              const NodeId ta = batch[a].to;
              const NodeId tb = batch[b].to;
              return ta != tb ? ta < tb : a < b;
            });
  const std::size_t capacity = config_.network.inbox_capacity;
  for (std::size_t i = 0; i < order.size();) {
    const NodeId to = batch[order[i]].to;
    std::size_t j = i;
    while (j < order.size() && batch[order[j]].to == to) ++j;
    // Offline — or never registered (sends may precede add_agent, as with
    // the old global ring): messages lost. The null check also covers
    // fragment mode defensively; outer nodes never enter local buckets.
    if (to >= agents_.size() || !active_[to] || agents_[to] == nullptr) {
      i = j;
      continue;
    }
    Rng& rng = node_rng(to);
    for (std::size_t k = j - i; k > 1; --k) {
      std::swap(order[i + k - 1], order[i + rng.index(k)]);
    }
    Context ctx(*this, to, &shard);
    for (std::size_t m = i; m < j; ++m) {
      if (capacity > 0 && m - i >= capacity) {  // queue overflow
        ++shard.dropped[static_cast<std::size_t>(net::protocol_of(batch[order[m]].type))];
        if (obs_on) obs::add(EngineMetrics::get().overflow);
        continue;
      }
      agents_[to]->on_message(ctx, batch[order[m]]);
    }
    i = j;
  }
  const std::size_t delivered = shard.delivery_batch.size();
  shard.delivery_batch.clear();
  if (obs_on) {
    const EngineMetrics& om = EngineMetrics::get();
    obs::add(om.delivered, delivered);
    obs::observe(om.shard_deliver, obs::now_ns() - obs_t0);
  }
}

Engine::MemoryStats Engine::memory_stats() const {
  MemoryStats total;
  const auto payload_heap = [](const net::Message& m) -> std::size_t {
    if (const auto* view = std::get_if<net::ViewPayload>(&m.payload)) {
      return view->view.capacity() * sizeof(net::Descriptor);
    }
    return 0;
  };
  for (const auto& shard : shards_) {
    for (const auto& bucket : shard->mailbox) {
      total.mailbox_bytes += bucket.capacity() * sizeof(net::Message);
      for (const net::Message& pending : bucket) {
        total.payload_bytes += payload_heap(pending);
      }
    }
    total.outbox_bytes += shard->outbox.capacity() * sizeof(net::Message);
    for (const net::Message& m : shard->outbox) total.payload_bytes += payload_heap(m);
    total.scratch_bytes +=
        shard->delivery_batch.capacity() * sizeof(net::Message) +
        shard->delivery_order.capacity() * sizeof(std::uint32_t);
  }
  total.outbox_bytes += staged_.capacity() * sizeof(net::Message);
  for (const net::Message& m : staged_) total.payload_bytes += payload_heap(m);
  total.scratch_bytes += pending_local_.capacity() * sizeof(PendingMessage);
  for (const auto& batch : wire_out_) total.scratch_bytes += batch.capacity();
  for (std::size_t f = 0; f < link_out_.size(); ++f) {
    total.scratch_bytes += link_out_[f].resident_bytes() + link_in_[f].resident_bytes();
  }
  const SnapshotArena::Stats arena = SnapshotArena::instance().stats();
  total.arena_bytes = arena.blobs.resident_bytes + arena.items.resident_bytes +
                      arena.stamps.resident_bytes + arena.spill_bytes;
  total.fault_bytes = link_chains_.resident_bytes();
  return total;
}

void Engine::activate_shard(Shard& shard) {
  WUP_TRACE_SCOPE("activate_shard");
  obs::ScopedTimerNs obs_timer(EngineMetrics::get().shard_activate);
  const auto limit =
      static_cast<NodeId>(std::min<std::size_t>(shard.end, agents_.size()));
  for (NodeId id = shard.begin; id < limit; ++id) {
    if (!active_[id]) continue;
    // Fragment mode: agents added on every worker (add_agent keeps
    // driver-held pointers valid everywhere) still act only at their
    // owner; outer bootstrap slots are null.
    if (!owns(id) || agents_[id] == nullptr) continue;
    Context ctx(*this, id, &shard);
    agents_[id]->on_cycle(ctx);
  }
}

void Engine::run_phase(const std::function<void(Shard&)>& phase) {
  if (shards_.empty()) return;
  in_phase_.store(true, std::memory_order_relaxed);
  if (threads_ > 1 && shards_.size() > 1) {
    if (pool_ == nullptr) pool_ = std::make_unique<WorkerPool>(threads_);
    pool_->run(shards_.size(), [&](std::size_t i) { phase(*shards_[i]); });
  } else {
    for (auto& shard : shards_) phase(*shard);
  }
  in_phase_.store(false, std::memory_order_relaxed);
}

void Engine::commit_phase() {
  // Ascending shard order == ascending node-id order: the canonical
  // sequential execution this parallel schedule is defined to match.
  // (Index loop: committing a send may grow shards_ via shard_for.)
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    if (observer_ != nullptr && !shard.observer.empty()) {
      shard.observer.replay_into(*observer_);
    }
    shard.observer.clear();
    for (std::size_t p = 0; p < shard.dropped.size(); ++p) {
      if (shard.dropped[p] != 0) {
        traffic_.record_dropped(static_cast<net::Protocol>(p), shard.dropped[p]);
        shard.dropped[p] = 0;
      }
    }
    for (net::Message& m : shard.outbox) route_message(std::move(m));
    shard.outbox.clear();
  }
  // Commit-slot barrier: exchange cross-fragment batches and insert
  // everything in canonical sender order.
  finish_slot();
}

void Engine::run_cycle() {
  WUP_TRACE_SCOPE("cycle");
  const EngineMetrics& om = EngineMetrics::get();
  // Fault-layer passes (no-ops when the knobs are off): scheduled
  // recoveries first, so a node due back this cycle is exposed to this
  // cycle's crash draws like any other active node.
  if (!recoveries_.empty()) process_recoveries();
  if (config_.network.crash_rate > 0.0) apply_random_crashes();
  ensure_shards();
  // Flush slot: main-thread sends staged since the last cycle (publish
  // fan-out, rejoin handshakes) commit here in canonical sender order —
  // the first of the cycle's three barrier slots.
  slot_kind_ = 0;
  {
    WUP_TRACE_SCOPE("flush");
    obs::ScopedTimerNs obs_timer(om.flush);
    flush_staged();
  }
  {
    WUP_TRACE_SCOPE("deliver_phase");
    obs::ScopedTimerNs obs_timer(om.phase_deliver);
    run_phase([this](Shard& shard) { deliver_shard(shard); });
  }
  slot_kind_ = 1;
  {
    WUP_TRACE_SCOPE("commit");
    obs::ScopedTimerNs obs_timer(om.commit);
    commit_phase();
  }
  {
    WUP_TRACE_SCOPE("activate_phase");
    obs::ScopedTimerNs obs_timer(om.phase_activate);
    run_phase([this](Shard& shard) { activate_shard(shard); });
  }
  slot_kind_ = 2;
  {
    WUP_TRACE_SCOPE("commit");
    obs::ScopedTimerNs obs_timer(om.commit);
    commit_phase();
  }
  obs::add(om.cycles);
  for (const CycleHook& hook : hooks_) hook(*this, now_);
  ++now_;
}

void Engine::run_cycles(int n) {
  for (int i = 0; i < n; ++i) run_cycle();
}

}  // namespace whatsup::sim
