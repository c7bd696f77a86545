// Microbenchmarks of the hot kernels in the WhatsUp stack: similarity
// computation (the WUP clustering inner loop), view merges, item-profile
// aggregation, the engine's route + deliver message path, the fault
// layer's link-chain state, the wire codec of the fragment exchange, and
// the SCC analysis used by Fig. 4.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "gossip/view.hpp"
#include "graph/generators.hpp"
#include "graph/scc.hpp"
#include "net/wire.hpp"
#include "profile/similarity.hpp"
#include "profile/snapshot.hpp"
#include "sim/engine.hpp"
#include "whatsup/node.hpp"

// Global operator-new hook counting heap allocations, so the payload
// benchmarks can report `allocs_per_op` — the number shared records and
// SBO are meant to drive to zero on the news fan-out path. Bench binary only;
// the library itself is untouched.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::uint64_t allocs_now() {
  return g_alloc_count.load(std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace whatsup {
namespace {

Profile random_profile(Rng& rng, std::size_t entries, ItemId universe) {
  Profile p;
  for (std::size_t i = 0; i < entries; ++i) {
    p.set(rng.index(universe) + 1, static_cast<Cycle>(rng.index(50)),
          rng.bernoulli(0.5) ? 1.0 : 0.0);
  }
  return p;
}

// The production scoring loop of the WUP clustering protocol: a node
// prepares its own profile once per merge and scores its candidate
// descriptors against it straight from their snapshot records, with one
// candidate profile churned between merges (the steady-state gossip
// pattern).
void BM_WupSimilarity(benchmark::State& state) {
  Rng rng(1);
  const auto size = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kCandidates = 64;
  const Profile subject = random_profile(rng, size, 4 * size);
  std::vector<net::Descriptor> candidates;
  for (std::size_t i = 0; i < kCandidates; ++i) {
    candidates.push_back(
        net::make_descriptor(static_cast<NodeId>(i), 0, random_profile(rng, size, 4 * size)));
  }
  SimilarityScorer scorer;
  for (auto _ : state) {
    // Gossip churn: one candidate re-rated an item since the last merge.
    net::Descriptor& churned = candidates[rng.index(kCandidates)];
    Profile fresh = churned.decoded_profile();
    fresh.set(rng.index(4 * size) + 1, 0, rng.bernoulli(0.5) ? 1.0 : 0.0);
    churned = net::make_descriptor(churned.node, churned.timestamp(), fresh);
    scorer.prepare(Metric::kWup, subject);
    double total = 0.0;
    for (const net::Descriptor& d : candidates) {
      total += scorer.score(d.snapshot());
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * kCandidates);
}
BENCHMARK(BM_WupSimilarity)->Arg(16)->Arg(64)->Arg(256);

// The raw scoring kernel (one prepared subject, one candidate record,
// fixed operands).
void BM_WupSimilarityKernel(benchmark::State& state) {
  Rng rng(1);
  const auto size = static_cast<std::size_t>(state.range(0));
  const Profile a = random_profile(rng, size, 4 * size);
  const ProfileHandle b = CompactProfile::encode(random_profile(rng, size, 4 * size));
  SimilarityScorer scorer;
  scorer.prepare(Metric::kWup, a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scorer.score(b.record()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WupSimilarityKernel)->Arg(16)->Arg(64)->Arg(256);

void BM_CosineSimilarity(benchmark::State& state) {
  Rng rng(2);
  const auto size = static_cast<std::size_t>(state.range(0));
  const Profile a = random_profile(rng, size, 4 * size);
  const Profile b = random_profile(rng, size, 4 * size);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cosine_similarity(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CosineSimilarity)->Arg(16)->Arg(64)->Arg(256);

void BM_ProfileFold(benchmark::State& state) {
  Rng rng(3);
  const auto size = static_cast<std::size_t>(state.range(0));
  const Profile user = random_profile(rng, size, 4 * size);
  for (auto _ : state) {
    Profile item;
    item.fold_profile(user);
    benchmark::DoNotOptimize(item);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfileFold)->Arg(64)->Arg(256);

void BM_ViewMergeClosest(benchmark::State& state) {
  Rng rng(4);
  const auto n_candidates = static_cast<std::size_t>(state.range(0));
  const Profile own = random_profile(rng, 100, 400);
  std::vector<net::Descriptor> candidates;
  for (std::size_t i = 0; i < n_candidates; ++i) {
    candidates.push_back(
        net::make_descriptor(static_cast<NodeId>(i), 0, random_profile(rng, 100, 400)));
  }
  std::vector<const net::Descriptor*> borrowed;
  for (const net::Descriptor& d : candidates) borrowed.push_back(&d);
  gossip::View view(20);
  const std::uint64_t before = allocs_now();
  for (auto _ : state) {
    view.assign_closest(borrowed, own, Metric::kWup, rng);
    benchmark::DoNotOptimize(view);
  }
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(allocs_now() - before) /
      static_cast<double>(state.iterations()));
  state.SetItemsProcessed(state.iterations() * n_candidates);
}
BENCHMARK(BM_ViewMergeClosest)->Arg(30)->Arg(70)->Arg(150);

// Outgoing-descriptor materialization: seed behavior (a fresh snapshot
// encoded per send) vs the shipped ProfileSnapshotCache (one snapshot per
// profile generation, reused until the version changes).
void BM_DescriptorDeepCopy(benchmark::State& state) {
  Rng rng(8);
  const Profile profile = random_profile(rng, 60, 240);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::make_descriptor(1, 0, profile));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DescriptorDeepCopy);

void BM_DescriptorSnapshotCache(benchmark::State& state) {
  Rng rng(8);
  const Profile profile = random_profile(rng, 60, 240);
  ProfileSnapshotCache cache;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::make_descriptor(1, 0, cache.get(profile)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DescriptorSnapshotCache);

// ---- Compact profile codec (profile/compact.hpp) --------------------------
//
// The storage layer under every descriptor: varint-delta encode of a
// profile into a detached slab record, and the full decode the cold paths
// pay (the scoring loops read the record itself: BM_WupSimilarityKernel).
void BM_CompactEncode(benchmark::State& state) {
  Rng rng(8);
  const auto size = static_cast<std::size_t>(state.range(0));
  const Profile profile = random_profile(rng, size, 4 * size);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CompactProfile::encode(profile));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompactEncode)->Arg(16)->Arg(64)->Arg(256);

// Full decode of a record into a fresh Profile (the cold paths: wire
// encode, cold start, avg_similarity).
void BM_CompactDecode(benchmark::State& state) {
  Rng rng(8);
  const auto size = static_cast<std::size_t>(state.range(0));
  std::vector<ProfileHandle> handles;
  for (int i = 0; i < 6; ++i) {
    handles.push_back(ProfileHandle::snapshot(random_profile(rng, size, 4 * size)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(handles[i % handles.size()].decode().size());
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompactDecode)->Arg(16)->Arg(64)->Arg(256);

// ---- News payload replication (BEEP fan-out, §III) ------------------------
//
// Forwarding a liked item replicates the payload fLIKE times. The item
// profile was once held by value (one deep copy per target); the shipped
// payload holds a handle to one immutable record (one refcount bump per
// target). `allocs_per_op` counts heap allocations per replicated fan-out.

constexpr int kNewsFanout = 10;  // the paper's fLIKE

// Pre-change behavior: the item profile deep-copied once per target.
void BM_NewsPayloadReplicateByValue(benchmark::State& state) {
  Rng rng(9);
  const auto size = static_cast<std::size_t>(state.range(0));
  const Profile profile = random_profile(rng, size, 4 * size);
  const std::uint64_t before = allocs_now();
  for (auto _ : state) {
    for (int i = 0; i < kNewsFanout; ++i) {
      Profile copy = profile;
      benchmark::DoNotOptimize(copy);
    }
  }
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(allocs_now() - before) /
      static_cast<double>(state.iterations()));
  state.SetItemsProcessed(state.iterations() * kNewsFanout);
}
BENCHMARK(BM_NewsPayloadReplicateByValue)->Arg(8)->Arg(64)->Arg(256);

// Shipped path: fLIKE copies of the payload bump one shared refcount.
void BM_NewsPayloadReplicateRecord(benchmark::State& state) {
  Rng rng(9);
  const auto size = static_cast<std::size_t>(state.range(0));
  net::NewsPayload news;
  news.item_profile = item_record(random_profile(rng, size, 4 * size));
  const std::uint64_t before = allocs_now();
  for (auto _ : state) {
    for (int i = 0; i < kNewsFanout; ++i) {
      net::NewsPayload copy = news;
      benchmark::DoNotOptimize(copy);
    }
  }
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(allocs_now() - before) /
      static_cast<double>(state.iterations()));
  state.SetItemsProcessed(state.iterations() * kNewsFanout);
}
BENCHMARK(BM_NewsPayloadReplicateRecord)->Arg(8)->Arg(64)->Arg(256);

// One full BEEP like hop on the shipped path: receive a payload that
// shares its record with the sender's copy, fold the user profile into it,
// record the like and run a window purge that drops nothing (one decode,
// one record written), then replicate to the fan-out. This is the
// per-delivery cost handle_news + forward pay.
void BM_NewsHopForward(benchmark::State& state) {
  Rng rng(10);
  const auto size = static_cast<std::size_t>(state.range(0));
  Profile user = random_profile(rng, size, 4 * size);
  net::NewsPayload incoming;
  incoming.item_profile = item_record(random_profile(rng, size, 4 * size));
  incoming.id = 1;  // already in `user` after the first hop: no insert
  const std::uint64_t before = allocs_now();
  for (auto _ : state) {
    net::NewsPayload news = incoming;  // delivery copy (shared)
    like_item(news.item_profile, user, news.id, /*created=*/0, /*cutoff=*/0);
    for (int i = 0; i < kNewsFanout; ++i) {
      net::NewsPayload copy = news;          // fan-out: refcount bumps
      benchmark::DoNotOptimize(copy);
    }
  }
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(allocs_now() - before) /
      static_cast<double>(state.iterations()));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NewsHopForward)->Arg(8)->Arg(64)->Arg(256);

void BM_MergeCandidates(benchmark::State& state) {
  Rng rng(5);
  std::vector<net::Descriptor> base, incoming;
  for (NodeId v = 0; v < 40; ++v) {
    base.push_back(net::Descriptor{v, static_cast<Cycle>(rng.index(100)), nullptr});
    incoming.push_back(
        net::Descriptor{v + 20, static_cast<Cycle>(rng.index(100)), nullptr});
  }
  std::vector<const net::Descriptor*> merged;
  const std::uint64_t before = allocs_now();
  for (auto _ : state) {
    gossip::merge_candidates(base, {incoming}, 0, merged);
    benchmark::DoNotOptimize(merged.data());
    benchmark::ClobberMemory();
  }
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(allocs_now() - before) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_MergeCandidates);

void BM_LargestScc(benchmark::State& state) {
  Rng rng(6);
  const auto n = static_cast<std::size_t>(state.range(0));
  // Overlay-like digraph: 20 random out-edges per node.
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v < n; ++v) {
    for (int e = 0; e < 20; ++e) {
      edges.emplace_back(v, static_cast<NodeId>(rng.index(n)));
    }
  }
  const graph::StaticGraph g = graph::StaticGraph::from_edges(n, edges);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::largest_scc_fraction(g));
  }
}
BENCHMARK(BM_LargestScc)->Arg(500)->Arg(3000);

// Probe agent for the engine row: each activation sends kProbeSends acks
// to uniformly random active peers; deliveries are counted and dropped.
constexpr int kProbeSends = 4;

class ProbeAgent final : public sim::Agent {
 public:
  explicit ProbeAgent(std::uint64_t* delivered) : delivered_(delivered) {}
  void on_cycle(sim::Context& ctx) override {
    for (int i = 0; i < kProbeSends; ++i) {
      ctx.send(ctx.random_active_peer(), net::MsgType::kAck, net::AckPayload{});
    }
  }
  void on_message(sim::Context&, const net::Message&) override { ++*delivered_; }
  void publish(sim::Context&, ItemIdx, ItemId) override {}

 private:
  std::uint64_t* delivered_;
};

// The engine's message path on one thread: every cycle routes each sent
// message through the network model into a mailbox ring at the barrier,
// then delivers it in the next cycle's deliver phase. Reports wall ns per
// message delivered (each one was also routed and committed).
void BM_EngineRouteDeliver(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t delivered = 0;
  sim::Engine engine(sim::Engine::Config{});
  engine.bootstrap(n, [&delivered](NodeId, Rng&) {
    return std::make_unique<ProbeAgent>(&delivered);
  });
  engine.run_cycles(3);  // rings and outboxes reach their steady size
  delivered = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) engine.run_cycle();
  const auto elapsed = std::chrono::duration<double, std::nano>(
      std::chrono::steady_clock::now() - t0);
  state.counters["ns_per_msg"] =
      elapsed.count() / static_cast<double>(std::max<std::uint64_t>(delivered, 1));
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
}
BENCHMARK(BM_EngineRouteDeliver)->Arg(500)->Arg(10000);

// ---- Fault-layer state (sim/engine.hpp, sim/reliability.hpp) ----------------
//
// Burst-loss chain lookup: 500 senders whose rows hold range(0) chains each
// (faults-500 fills ~450 of 499), probed in commit order — senders
// ascending, each sender's recipients in random order — at the chains' own
// cycle, so each call is the row search alone, no chain step.
void BM_LinkChainLookup(benchmark::State& state) {
  constexpr NodeId kSenders = 500;
  const auto per_row = static_cast<std::size_t>(state.range(0));
  net::BurstLossModel burst;
  burst.p_enter = 0.08;
  burst.p_exit = 0.25;
  burst.loss_bad = 0.6;
  const Rng root(7);
  Rng rng(8);
  sim::LinkChains chains;
  std::vector<NodeId> recipients(kSenders);
  std::vector<std::pair<NodeId, NodeId>> links;
  for (NodeId from = 0; from < kSenders; ++from) {
    for (NodeId to = 0; to < kSenders; ++to) recipients[to] = to;
    rng.shuffle(recipients);  // first uses in random order
    for (std::size_t i = 0; i < per_row; ++i) {
      chains.advance(from, recipients[i], 0, burst, root);
      links.emplace_back(from, recipients[i]);
    }
  }
  std::size_t next = 0;
  for (auto _ : state) {
    const auto [from, to] = links[next];
    next = next + 1 == links.size() ? 0 : next + 1;
    benchmark::DoNotOptimize(chains.advance(from, to, 0, burst, root));
  }
}
BENCHMARK(BM_LinkChainLookup)->Arg(32)->Arg(450);

// ---- Wire codec (net/wire.hpp) ---------------------------------------------
//
// One WUP gossip envelope as it crosses a fragment link: the sender's
// descriptor plus a full WUP view (2·fLIKE = 16 entries), each carrying a
// distinct 30-entry binary profile snapshot. Arg 0 is a cold link, where
// every snapshot ships in full (encode: a one-set table that 17 rotating
// snapshots keep evicting; decode: a batch of full ships); arg 1 a warm
// link, where every snapshot already crossed and ships as a table
// reference. Reports ns per envelope and its wire bytes.
constexpr std::size_t kWireViewEntries = 16;

net::Message wup_envelope_message() {
  Rng rng(12);
  net::Message m;
  m.from = 3;
  m.to = 4;
  m.sent_at = 100;
  m.type = net::MsgType::kWupReply;
  net::ViewPayload v;
  v.sender = net::make_descriptor(3, 100, random_profile(rng, 30, 240));
  for (std::size_t i = 0; i < kWireViewEntries; ++i) {
    v.view.push_back(net::make_descriptor(static_cast<NodeId>(10 + i), 90,
                                          random_profile(rng, 30, 240)));
  }
  m.payload = std::move(v);
  return m;
}

void BM_WireEncodeView(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  const net::Message m = wup_envelope_message();
  net::SnapshotSendTable link(warm ? net::snapshot_table_slots(500)
                                   : net::SnapshotSendTable::kWays);
  std::vector<std::uint8_t> out;
  if (warm) net::encode_envelope(out, 101, m, link);
  std::size_t bytes = 0;
  for (auto _ : state) {
    out.clear();
    net::encode_envelope(out, 101, m, link);
    bytes = out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["wire_bytes"] = static_cast<double>(bytes);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireEncodeView)->Arg(0)->Arg(1);

void BM_WireDecodeView(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  const net::Message m = wup_envelope_message();
  const std::size_t slots = net::snapshot_table_slots(500);
  net::SnapshotSendTable tx(slots);
  net::SnapshotRecvTable rx(slots);
  std::vector<std::uint8_t> bytes;
  net::encode_envelope(bytes, 101, m, tx);  // full ships
  if (warm) {
    net::WireReader prime(bytes.data(), bytes.size());
    Cycle due = 0;
    net::Message out;
    if (!net::decode_envelope(prime, due, out, rx)) state.SkipWithError("decode failed");
    bytes.clear();
    net::encode_envelope(bytes, 101, m, tx);  // references
  }
  for (auto _ : state) {
    net::WireReader r(bytes.data(), bytes.size());
    Cycle due = 0;
    net::Message out;
    if (!net::decode_envelope(r, due, out, rx)) {
      state.SkipWithError("decode failed");
      break;
    }
    benchmark::DoNotOptimize(out.payload.index());
  }
  state.counters["wire_bytes"] = static_cast<double>(bytes.size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireDecodeView)->Arg(0)->Arg(1);

// One forward's fLIKE fan-out crossing a fragment link: fLIKE = 8 news
// envelopes in one batch sharing one real-valued item record of `arg`
// entries. The batch ships the record once and then 7 batch-local
// back-references; each iteration encodes the batch, decodes it (the
// receiver builds one record from the bytes) and ends the batch on both
// ends, as the engine does at every barrier exchange. Reports ns per
// batch and its wire bytes.
void BM_WireNewsFanout(benchmark::State& state) {
  constexpr NodeId kFanout = 8;
  const auto size = static_cast<std::size_t>(state.range(0));
  Rng rng(13);
  Profile item;
  for (std::size_t i = 0; i < size; ++i) {
    item.set(rng.index(4 * size) + 1, static_cast<Cycle>(rng.index(50)), rng.uniform());
  }
  net::Message m;
  m.from = 3;
  m.sent_at = 100;
  m.type = net::MsgType::kNews;
  net::NewsPayload news;
  news.id = 0xabcdef;
  news.item_profile = item_record(item);
  m.payload = std::move(news);
  const std::size_t slots = net::snapshot_table_slots(500);
  net::SnapshotSendTable tx(slots);
  net::SnapshotRecvTable rx(slots);
  std::vector<std::uint8_t> bytes;
  for (auto _ : state) {
    bytes.clear();
    for (NodeId k = 0; k < kFanout; ++k) {
      m.to = 10 + 2 * k;
      net::encode_envelope(bytes, 101, m, tx);
    }
    tx.end_batch();
    net::WireReader r(bytes.data(), bytes.size());
    for (NodeId k = 0; k < kFanout; ++k) {
      Cycle due = 0;
      net::Message out;
      if (!net::decode_envelope(r, due, out, rx)) {
        state.SkipWithError("decode failed");
        break;
      }
      benchmark::DoNotOptimize(out.payload.index());
    }
    rx.end_batch();
  }
  state.counters["wire_bytes"] = static_cast<double>(bytes.size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireNewsFanout)->Arg(64);

}  // namespace
}  // namespace whatsup

BENCHMARK_MAIN();
