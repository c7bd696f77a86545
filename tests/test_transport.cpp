// Transport backends (sim/transport.hpp): the in-process identity, and the
// socket mesh the fragment-partitioned engine exchanges envelope batches
// over. The socket tests drive real AF_UNIX socketpairs from threads — the
// same mesh the forking bench launcher hands to worker processes — and the
// wire work-counter test forks one process per fragment, as the launcher
// does.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "analysis/runner.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "dataset/survey.hpp"
#include "net/wire.hpp"
#include "obs/registry.hpp"
#include "profile/snapshot.hpp"
#include "sim/engine.hpp"
#include "sim/transport.hpp"

namespace whatsup::sim {
namespace {

using Batches = std::vector<std::vector<std::uint8_t>>;

TEST(Transport, InProcessIsTheSingleFragmentIdentity) {
  InProcessTransport t;
  EXPECT_EQ(t.fragments(), 1u);
  EXPECT_EQ(t.fragment_id(), 0u);
  const Batches in = t.exchange(Batches(1));
  ASSERT_EQ(in.size(), 1u);
  EXPECT_TRUE(in[0].empty());
}

// A deterministic per-(slot, sender, receiver) payload so every byte of
// every exchanged batch can be verified on the receiving side.
std::vector<std::uint8_t> batch_for(std::size_t slot, std::size_t from,
                                    std::size_t to) {
  // Length varies with the slot so some batches span multiple reads and
  // some are empty (pure barrier tokens).
  const std::size_t len = (slot * 7 + from * 3 + to) % 5 == 0
                              ? 0
                              : (slot * 131 + from * 17 + to * 5) % 3000;
  std::vector<std::uint8_t> bytes(len);
  for (std::size_t i = 0; i < len; ++i) {
    bytes[i] = static_cast<std::uint8_t>(slot * 31 + from * 7 + to * 3 + i);
  }
  return bytes;
}

// Full-duplex lockstep over a mesh of `n` fragments for `slots` barriers:
// every worker ships a distinct batch to every peer each slot and must
// receive exactly its peers' batches for that slot, in order, even when a
// fast peer's next-slot frame arrives early (the per-peer receive buffers
// keep frames strictly FIFO).
void exercise_mesh(std::size_t n, std::size_t slots) {
  std::vector<std::vector<int>> mesh = socketpair_mesh(n);
  std::vector<std::string> errors(n);
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < n; ++w) {
    workers.emplace_back([&, w] {
      try {
        SocketTransport transport(w, std::move(mesh[w]));
        ASSERT_EQ(transport.fragments(), n);
        ASSERT_EQ(transport.fragment_id(), w);
        for (std::size_t slot = 0; slot < slots; ++slot) {
          Batches out(n);
          for (std::size_t to = 0; to < n; ++to) {
            if (to != w) out[to] = batch_for(slot, w, to);
          }
          const Batches in = transport.exchange(out);
          ASSERT_EQ(in.size(), n);
          EXPECT_TRUE(in[w].empty());
          for (std::size_t from = 0; from < n; ++from) {
            if (from == w) continue;
            EXPECT_EQ(in[from], batch_for(slot, from, w))
                << "worker " << w << " slot " << slot << " from " << from;
          }
          // Odd workers lag behind on odd slots so their peers race ahead
          // and ship the next slot's frames early.
          if (w % 2 == 1 && slot % 2 == 1) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
        }
      } catch (const std::exception& e) {
        errors[w] = e.what();
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (std::size_t w = 0; w < n; ++w) {
    EXPECT_EQ(errors[w], "") << "worker " << w;
  }
}

TEST(Transport, SocketMeshTwoFragments) { exercise_mesh(2, 12); }

TEST(Transport, SocketMeshFourFragmentsManySlots) { exercise_mesh(4, 25); }

TEST(Transport, PeerCloseIsFatal) {
  std::vector<std::vector<int>> mesh = socketpair_mesh(2);
  // Fragment 1 never shows up: close its whole row.
  for (int fd : mesh[1]) {
    if (fd >= 0) ::close(fd);
  }
  SocketTransport transport(0, std::move(mesh[0]));
  EXPECT_THROW(transport.exchange(Batches(2)), std::runtime_error);
}

TEST(Transport, CorruptFrameIsFatal) {
  std::vector<std::vector<int>> mesh = socketpair_mesh(2);
  // Write garbage straight onto fragment 1's socket to fragment 0: an
  // absurd length prefix fails frame validation on the receiving side.
  const std::uint8_t junk[8] = {0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0};
  ASSERT_EQ(::write(mesh[1][0], junk, sizeof(junk)),
            static_cast<ssize_t>(sizeof(junk)));
  SocketTransport transport(0, std::move(mesh[0]));
  EXPECT_THROW(transport.exchange(Batches(2)), std::runtime_error);
  for (int fd : mesh[1]) {
    if (fd >= 0) ::close(fd);
  }
}

// Decorator tallying the profiled (non-empty snapshot) descriptors and the
// news envelopes with an item profile its fragment ships, by decoding the
// outgoing batches through its own mirror tables: counts independent of
// the codec's sender-side counters.
class CountingTransport final : public Transport {
 public:
  CountingTransport(Transport& inner, std::size_t slots)
      : inner_(inner), mirrors_(inner.fragments()) {
    for (auto& table : mirrors_) table = net::SnapshotRecvTable(slots);
  }
  std::size_t fragments() const override { return inner_.fragments(); }
  std::size_t fragment_id() const override { return inner_.fragment_id(); }
  Batches exchange(const Batches& out) override {
    for (std::size_t f = 0; f < out.size(); ++f) {
      if (f == fragment_id()) continue;
      net::WireReader r(out[f].data(), out[f].size());
      while (r.ok() && r.remaining() > 0) {
        Cycle due = 0;
        net::Message m;
        if (!net::decode_envelope(r, due, m, mirrors_[f])) {
          ++undecodable;
          break;
        }
        if (const auto* v = std::get_if<net::ViewPayload>(&m.payload)) {
          profiled += v->sender.profile_size() > 0 ? 1 : 0;
          for (const net::Descriptor& d : v->view) profiled += d.profile_size() > 0 ? 1 : 0;
        } else if (const auto* n = std::get_if<net::NewsPayload>(&m.payload)) {
          items += n->item_profile != nullptr ? 1 : 0;
        }
      }
      mirrors_[f].end_batch();
    }
    return inner_.exchange(out);
  }

  std::uint64_t profiled = 0;
  std::uint64_t items = 0;
  std::uint64_t undecodable = 0;

 private:
  Transport& inner_;
  std::vector<net::SnapshotRecvTable> mirrors_;
};

std::uint64_t counter_value(const char* name) {
  for (const obs::MetricValue& m : obs::Registry::instance().merge()) {
    if (m.name == name) return m.value;
  }
  return 0;
}

// Per fragment: wire.snapshot.full, wire.snapshot.ref, the decorator's
// profiled-descriptor tally and its decode failures; wire.item.full,
// wire.item.ref and the decorator's item-carrying news tally;
// arena.content.hits and arena.content.misses.
using WireCounts = std::array<std::uint64_t, 9>;

// One 2-fragment run_protocol, each fragment in a forked single-threaded
// process (so blob arena indices, and with them the link-table slots, are
// a pure function of the seed, exactly as in the bench launcher).
std::vector<WireCounts> run_two_fragments(const data::Workload& workload,
                                          const analysis::RunConfig& base) {
  constexpr std::size_t kFragments = 2;
  std::vector<std::vector<int>> mesh = socketpair_mesh(kFragments);
  std::vector<WireCounts> counts(kFragments);
  std::vector<pid_t> pids;
  std::vector<int> reads;
  for (std::size_t w = 0; w < kFragments; ++w) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      ::close(fds[0]);
      for (std::size_t o = 0; o < kFragments; ++o) {
        if (o == w) continue;
        for (int fd : mesh[o]) {
          if (fd >= 0) ::close(fd);
        }
      }
      WireCounts c{};
      try {
        SocketTransport socket(w, std::move(mesh[w]));
        CountingTransport counting(socket, net::snapshot_table_slots(workload.num_users()));
        obs::Registry::instance().reset();
        obs::set_enabled(true);
        analysis::RunConfig config = base;
        config.partitions = static_cast<int>(kFragments);
        config.transport = &counting;
        (void)analysis::run_protocol(workload, config);
        obs::set_enabled(false);
        c = {counter_value("wire.snapshot.full"), counter_value("wire.snapshot.ref"),
             counting.profiled, counting.undecodable,
             counter_value("wire.item.full"), counter_value("wire.item.ref"),
             counting.items,
             counter_value("arena.content.hits"), counter_value("arena.content.misses")};
      } catch (...) {
        ::_exit(3);
      }
      const bool wrote = ::write(fds[1], c.data(), sizeof(c)) == static_cast<ssize_t>(sizeof(c));
      ::_exit(wrote ? 0 : 4);
    }
    ::close(fds[1]);
    pids.push_back(pid);
    reads.push_back(fds[0]);
  }
  for (auto& row : mesh) {
    for (int fd : row) {
      if (fd >= 0) ::close(fd);
    }
  }
  for (std::size_t w = 0; w < kFragments; ++w) {
    std::size_t got = 0;
    auto* bytes = reinterpret_cast<std::uint8_t*>(counts[w].data());
    while (got < sizeof(WireCounts)) {
      const ssize_t n = ::read(reads[w], bytes + got, sizeof(WireCounts) - got);
      if (n <= 0) break;
      got += static_cast<std::size_t>(n);
    }
    ::close(reads[w]);
    int status = 0;
    EXPECT_EQ(::waitpid(pids[w], &status, 0), pids[w]);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << "fragment " << w;
    EXPECT_EQ(got, sizeof(WireCounts)) << "fragment " << w;
  }
  return counts;
}

// The wire work counters are exact: two runs at one seed count the same
// full ships, references and content-table hits and misses per fragment;
// snapshot full + ref is exactly the number of profiled descriptors the
// fragment shipped, and item full + ref the number of its news envelopes
// carrying an item profile.
TEST(Transport, WireSnapshotCountersAreExact) {
  Rng rng(31);
  data::SurveyConfig sc;
  sc.base_users = 60;
  sc.base_items = 70;
  sc.replication = 2;
  const data::Workload workload = data::make_survey(sc, rng);
  analysis::RunConfig config;
  config.approach = analysis::Approach::kWhatsUp;
  config.fanout = 6;
  config.seed = 17;
  config.publish_cycles = 20;
  config.drain_cycles = 6;

  const std::vector<WireCounts> first = run_two_fragments(workload, config);
  const std::vector<WireCounts> second = run_two_fragments(workload, config);
  EXPECT_EQ(first, second);
  for (std::size_t w = 0; w < first.size(); ++w) {
    const auto [full, ref, profiled, undecodable, item_full, item_ref, items,
                content_hits, content_misses] = first[w];
    SCOPED_TRACE(testing::Message() << "fragment " << w);
    EXPECT_EQ(undecodable, 0u);
    EXPECT_GT(full, 0u);
    EXPECT_GT(ref, 0u);
    EXPECT_EQ(full + ref, profiled);
    EXPECT_GT(item_full, 0u);
    EXPECT_GT(item_ref, 0u);
    EXPECT_EQ(item_full + item_ref, items);
    EXPECT_GT(content_hits, 0u);
    EXPECT_GT(content_misses, 0u);
  }
}

// Gossips profile snapshots: each cycle a node sends its own descriptor
// plus the last few it received to a random peer, and grows its profile
// every other cycle. Snapshots thus re-cross fragment links (table
// references) and keep producing new generations (full ships); receivers
// fold every descriptor's contents into a digest.
class SnapshotGossipAgent final : public Agent {
 public:
  explicit SnapshotGossipAgent(NodeId self) : self_(self) {}

  void on_cycle(Context& ctx) override {
    const Cycle now = ctx.now();
    if (now % 2 == 0) {
      profile_.set(static_cast<ItemId>(now) + 1, now, (self_ + now) % 3 == 0 ? 1.0 : 0.0);
      profile_.purge_older_than(now - 6);
    }
    net::ViewPayload v;
    v.sender = net::make_descriptor(self_, now, cache_.get(profile_));
    v.view = recent_;
    ctx.send(ctx.random_active_peer(), net::MsgType::kRpsRequest, std::move(v));
  }

  void on_message(Context&, const net::Message& m) override {
    const net::ViewPayload& v = m.view();
    digest += fold(m.from, v.sender);
    for (const net::Descriptor& d : v.view) digest += fold(m.from, d);
    recent_.insert(recent_.begin(), v.sender);
    if (recent_.size() > 4) recent_.pop_back();
  }

  void publish(Context&, ItemIdx, ItemId) override {}

  std::uint64_t digest = 0;

 private:
  std::uint64_t fold(NodeId from, const net::Descriptor& d) const {
    std::uint64_t h = hash_combine(hash_combine(self_, from), d.node);
    h = hash_combine(h, static_cast<std::uint64_t>(d.timestamp()));
    const Profile p = d.decoded_profile();
    for (std::size_t i = 0; i < p.size(); ++i) {
      h = hash_combine(h, p.ids()[i]);
      h = hash_combine(h, static_cast<std::uint64_t>(p.timestamps()[i]));
      h = hash_combine(h, std::bit_cast<std::uint64_t>(p.scores()[i]));
    }
    return h;
  }

  NodeId self_;
  Profile profile_;
  ProfileSnapshotCache cache_;
  std::vector<net::Descriptor> recent_;
};

// Growing the deployment mid-run changes the link-table size; every
// fragment resizes at the same barrier, so the tables stay mirrored and the
// partitioned run still receives exactly what the single process does.
TEST(Transport, LinkTablesStayMirroredAcrossMidRunGrowth) {
  constexpr std::size_t kBefore = 100;
  constexpr std::size_t kAfter = 200;
  ASSERT_NE(net::snapshot_table_slots(kBefore), net::snapshot_table_slots(kAfter));
  const auto factory = [](NodeId v, Rng&) { return std::make_unique<SnapshotGossipAgent>(v); };
  // One lockstep worker's share of the digest sum.
  const auto run_worker = [&](Transport* transport) {
    Engine::Config config;
    config.seed = 19;
    config.transport = transport;
    Engine engine(config);
    engine.bootstrap(kBefore, factory);
    engine.run_cycles(9);
    engine.bootstrap(kAfter - kBefore, factory);
    engine.run_cycles(9);
    std::uint64_t digest = 0;
    for (NodeId v = 0; v < engine.num_nodes(); ++v) {
      if (const auto* a = static_cast<const SnapshotGossipAgent*>(engine.agent_ptr(v))) {
        digest += a->digest;
      }
    }
    return digest;
  };
  const std::uint64_t single = run_worker(nullptr);
  EXPECT_NE(single, 0u);
  for (const std::size_t fragments : {std::size_t{2}, std::size_t{3}}) {
    std::vector<std::vector<int>> mesh = socketpair_mesh(fragments);
    std::vector<std::uint64_t> partial(fragments, 0);
    std::vector<std::string> errors(fragments);
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < fragments; ++w) {
      workers.emplace_back([&, w] {
        try {
          SocketTransport transport(w, std::move(mesh[w]));
          partial[w] = run_worker(&transport);
        } catch (const std::exception& e) {
          errors[w] = e.what();
        }
      });
    }
    for (std::thread& t : workers) t.join();
    std::uint64_t sum = 0;
    for (std::size_t w = 0; w < fragments; ++w) {
      EXPECT_EQ(errors[w], "") << "fragment " << w;
      sum += partial[w];
    }
    EXPECT_EQ(sum, single) << fragments << " fragments";
  }
}

TEST(Transport, MeshShapeAndOwnership) {
  const std::size_t n = 3;
  std::vector<std::vector<int>> mesh = socketpair_mesh(n);
  ASSERT_EQ(mesh.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(mesh[i].size(), n);
    EXPECT_EQ(mesh[i][i], -1);
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) EXPECT_GE(mesh[i][j], 0);
    }
  }
  for (auto& row : mesh) {
    for (int fd : row) {
      if (fd >= 0) ::close(fd);
    }
  }
}

}  // namespace
}  // namespace whatsup::sim
