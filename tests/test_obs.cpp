// Observability contract (src/obs/): the telemetry registry merges to the
// same totals regardless of which thread did which work, histogram
// bucketing is exact at the bounds, the trace exporter emits well-formed
// Chrome trace-event JSON, and — the load-bearing guarantee — enabling
// stats and tracing leaves fixed-seed trajectories bit-identical across
// worker-thread counts, shard widths AND fragment partitions.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "analysis/runner.hpp"
#include "dataset/survey.hpp"
#include "obs/registry.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "scenario/scenario.hpp"
#include "sim/transport.hpp"

namespace whatsup {
namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON validator. gtest is the only test
// dependency, and "the exporter emits parseable JSON" is exactly the kind
// of claim that should be checked by an independent parser, however small.

class JsonCursor {
 public:
  explicit JsonCursor(const std::string& text) : p_(text.data()), end_(p_ + text.size()) {}

  bool parse() { return value() && (skip_ws(), p_ == end_); }

 private:
  bool value() {
    skip_ws();
    if (p_ == end_) return false;
    switch (*p_) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++p_;  // '{'
    skip_ws();
    if (p_ != end_ && *p_ == '}') { ++p_; return true; }
    while (true) {
      skip_ws();
      if (p_ == end_ || *p_ != '"' || !string()) return false;
      skip_ws();
      if (p_ == end_ || *p_++ != ':') return false;
      if (!value()) return false;
      skip_ws();
      if (p_ == end_) return false;
      if (*p_ == ',') { ++p_; continue; }
      if (*p_ == '}') { ++p_; return true; }
      return false;
    }
  }

  bool array() {
    ++p_;  // '['
    skip_ws();
    if (p_ != end_ && *p_ == ']') { ++p_; return true; }
    while (true) {
      if (!value()) return false;
      skip_ws();
      if (p_ == end_) return false;
      if (*p_ == ',') { ++p_; continue; }
      if (*p_ == ']') { ++p_; return true; }
      return false;
    }
  }

  bool string() {
    ++p_;  // '"'
    while (p_ != end_ && *p_ != '"') {
      if (*p_ == '\\') {
        ++p_;
        if (p_ == end_) return false;
      }
      ++p_;
    }
    if (p_ == end_) return false;
    ++p_;  // closing '"'
    return true;
  }

  bool number() {
    const char* start = p_;
    if (p_ != end_ && *p_ == '-') ++p_;
    while (p_ != end_ && (std::isdigit(static_cast<unsigned char>(*p_)) != 0 ||
                          *p_ == '.' || *p_ == 'e' || *p_ == 'E' || *p_ == '+' ||
                          *p_ == '-')) {
      ++p_;
    }
    return p_ != start;
  }

  bool literal(const char* lit) {
    for (; *lit != '\0'; ++lit, ++p_) {
      if (p_ == end_ || *p_ != *lit) return false;
    }
    return true;
  }

  void skip_ws() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\n' || *p_ == '\t' || *p_ == '\r')) ++p_;
  }

  const char* p_;
  const char* end_;
};

std::size_t count_occurrences(const std::string& haystack, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// Every test leaves the global switch off so suites sharing the process
// (and the registry singleton) see the default-disabled state.
struct StatsGuard {
  ~StatsGuard() { obs::set_enabled(false); }
};

// ---------------------------------------------------------------------------
// Registry semantics.

// The merged totals must be a pure function of the work performed, not of
// which thread performed it: counters sum, gauges max, and both operators
// are commutative + associative, so any thread/lane assignment merges to
// the same numbers.
TEST(ObsRegistry, MergeIsExactAcrossThreadAssignments) {
  StatsGuard guard;
  obs::Registry::instance().reset();
  obs::set_enabled(true);
  const obs::MetricId events = obs::counter("test.merge.events");
  const obs::MetricId peak = obs::gauge("test.merge.peak");

  for (const unsigned threads : {1u, 4u}) {
    obs::Registry::instance().reset();
    // 4 * 1000 increments and a max over {10, 20, 30, 40}, split across
    // `threads` workers in two different interleavings.
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        const unsigned chunks = 4 / threads;
        for (unsigned k = 0; k < chunks; ++k) {
          const unsigned chunk = t * chunks + k;
          for (int i = 0; i < 1000; ++i) obs::add(events);
          obs::gauge_max(peak, 10ull * (chunk + 1));
        }
      });
    }
    for (std::thread& w : workers) w.join();

    const std::vector<obs::MetricValue> merged = obs::Registry::instance().merge();
    std::uint64_t events_total = 0;
    std::uint64_t peak_max = 0;
    for (const obs::MetricValue& m : merged) {
      if (m.name == "test.merge.events") events_total = m.value;
      if (m.name == "test.merge.peak") peak_max = m.value;
    }
    EXPECT_EQ(events_total, 4000u) << "threads=" << threads;
    EXPECT_EQ(peak_max, 40u) << "threads=" << threads;
  }
}

TEST(ObsRegistry, MergedMetricsSortedByName) {
  StatsGuard guard;
  obs::Registry::instance().reset();
  obs::set_enabled(true);
  obs::counter("test.sort.zzz");
  obs::counter("test.sort.aaa");
  obs::add(obs::counter("test.sort.mmm"));
  const std::vector<obs::MetricValue> merged = obs::Registry::instance().merge();
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LT(merged[i - 1].name, merged[i].name);
  }
}

// Upper-inclusive bucketing: value <= bounds[i] lands in bucket i, and the
// final bucket counts overflow. The edges themselves are the interesting
// cases — an off-by-one here silently misfiles every latency sample.
TEST(ObsRegistry, HistogramBucketEdges) {
  StatsGuard guard;
  obs::Registry::instance().reset();
  obs::set_enabled(true);
  const std::uint64_t bounds[] = {10, 100};
  const obs::HistogramId h = obs::histogram("test.hist.edges", bounds);
  for (const std::uint64_t v : {1ull, 10ull, 11ull, 100ull, 101ull}) {
    obs::observe(h, v);
  }
  const std::vector<obs::MetricValue> merged = obs::Registry::instance().merge();
  const obs::MetricValue* hist = nullptr;
  for (const obs::MetricValue& m : merged) {
    if (m.name == "test.hist.edges") hist = &m;
  }
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->kind, obs::Kind::kHistogram);
  EXPECT_EQ(hist->count, 5u);
  EXPECT_EQ(hist->sum, 223u);
  ASSERT_EQ(hist->buckets.size(), 3u);  // two bounds + overflow
  EXPECT_EQ(hist->buckets[0], 2u);      // 1, 10
  EXPECT_EQ(hist->buckets[1], 2u);      // 11, 100
  EXPECT_EQ(hist->buckets[2], 1u);      // 101
}

TEST(ObsRegistry, RegistrationIsIdempotentByName) {
  StatsGuard guard;
  const obs::MetricId a = obs::counter("test.idem.counter");
  const obs::MetricId b = obs::counter("test.idem.counter");
  EXPECT_EQ(a, b);
  // Re-registering under a different kind is a programming error.
  EXPECT_THROW(obs::gauge("test.idem.counter"), std::logic_error);
}

TEST(ObsRegistry, DisabledAddsAreInvisible) {
  StatsGuard guard;
  obs::Registry::instance().reset();
  const obs::MetricId id = obs::counter("test.disabled.counter");
  obs::set_enabled(false);
  for (int i = 0; i < 100; ++i) obs::add(id);
  obs::set_enabled(true);
  obs::add(id, 7);
  for (const obs::MetricValue& m : obs::Registry::instance().merge()) {
    if (m.name == "test.disabled.counter") EXPECT_EQ(m.value, 7u);
  }
}

TEST(ObsRegistry, ResetZeroesEveryLane) {
  StatsGuard guard;
  obs::set_enabled(true);
  const obs::MetricId id = obs::counter("test.reset.counter");
  obs::add(id, 41);
  obs::Registry::instance().reset();
  for (const obs::MetricValue& m : obs::Registry::instance().merge()) {
    EXPECT_EQ(m.value, 0u) << m.name;
    EXPECT_EQ(m.count, 0u) << m.name;
  }
}

// ---------------------------------------------------------------------------
// Trace exporter.

// Spans recorded from several threads (including threads that have already
// exited by export time) must serialize into JSON that an independent
// parser accepts, with one traceEvents entry per surviving span.
TEST(ObsTrace, ExportIsWellFormedJson) {
  obs::trace_start(/*ring_capacity=*/256);
  {
    WUP_TRACE_SCOPE("main_span");
    std::vector<std::thread> workers;
    for (int t = 0; t < 3; ++t) {
      workers.emplace_back([] {
        for (int i = 0; i < 5; ++i) {
          WUP_TRACE_SCOPE("worker_span");
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }
  obs::trace_stop();

  std::ostringstream out;
  const std::size_t events = obs::trace_write_json(out);
  const std::string json = out.str();
#if WHATSUP_TRACING
  EXPECT_EQ(events, 16u);  // 3 threads x 5 + the main span
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 16u);
  EXPECT_EQ(count_occurrences(json, "\"name\":\"worker_span\""), 15u);
#else
  EXPECT_EQ(events, 0u);  // compiled out: the macro expands to nothing
#endif
  EXPECT_TRUE(JsonCursor(json).parse()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(ObsTrace, RingDropsOldestWhenFull) {
  obs::trace_start(/*ring_capacity=*/8);
  for (int i = 0; i < 50; ++i) {
    WUP_TRACE_SCOPE("overflowing");
  }
  obs::trace_stop();
  std::ostringstream out;
  const std::size_t events = obs::trace_write_json(out);
#if WHATSUP_TRACING
  EXPECT_EQ(events, 8u);  // bounded: newest 8 survive
#else
  EXPECT_EQ(events, 0u);
#endif
  EXPECT_TRUE(JsonCursor(out.str()).parse());
}

TEST(ObsTrace, InactiveSessionRecordsNothing) {
  // No trace_start: scopes must cost a branch and record nothing.
  {
    WUP_TRACE_SCOPE("orphan");
  }
  EXPECT_FALSE(obs::tracing_active());
}

// ---------------------------------------------------------------------------
// Snapshot + stats JSON.

TEST(ObsSnapshot, StatsJsonIsWellFormed) {
  StatsGuard guard;
  obs::Registry::instance().reset();
  obs::set_enabled(true);
  obs::add(obs::counter("test.json.counter"), 3);
  obs::observe(obs::histogram("test.json.hist", obs::time_bounds_ns(), "ns"), 5000);

  std::vector<obs::CycleSample> series;
  for (Cycle c = 0; c < 3; ++c) {
    series.push_back(obs::CycleSample{c, obs::Snapshot::collect()});
  }
  obs::Snapshot final_snapshot = obs::Snapshot::collect();
  final_snapshot.set_gauge("test.json.gauge", 99, "bytes");

  std::ostringstream out;
  obs::write_stats_json(out, series, final_snapshot);
  const std::string json = out.str();
  EXPECT_TRUE(JsonCursor(json).parse()) << json;
  EXPECT_EQ(count_occurrences(json, "\"cycle\":"), 3u);
  EXPECT_NE(json.find("\"final\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.gauge\""), std::string::npos);
  EXPECT_EQ(final_snapshot.value("test.json.counter"), 3u);
  EXPECT_EQ(final_snapshot.value("test.json.hist"), 1u);  // histogram -> count
}

// ---------------------------------------------------------------------------
// The determinism contract: telemetry on vs off, bit-identical digests.

analysis::RunConfig obs_run_config() {
  analysis::RunConfig config;
  config.approach = analysis::Approach::kWhatsUp;
  config.fanout = 6;
  config.seed = 77;
  config.network.loss_rate = 0.04;
  config.network.jitter = 1;
  config.collect_cycle_digests = true;
  return config;
}

data::Workload obs_workload() {
  Rng rng(31);
  data::SurveyConfig sc;
  sc.base_users = 60;
  sc.base_items = 70;
  sc.replication = 2;
  return data::make_survey(sc, rng);
}

// Stats sampling + a live trace session must not perturb the trajectory:
// per-cycle Tracker digests and traffic totals stay bit-identical with
// telemetry off vs on, across worker-thread counts x shard widths.
TEST(ObsDeterminism, DigestsBitIdenticalAcrossThreadsAndWidths) {
  StatsGuard guard;
  const data::Workload workload = obs_workload();
  analysis::RunConfig config = obs_run_config();

  obs::set_enabled(false);
  const analysis::RunResult base = analysis::run_protocol(workload, config);
  ASSERT_FALSE(base.cycle_digests.empty());
  ASSERT_GT(base.news_messages + base.gossip_messages, 0u);

  const struct {
    unsigned threads;
    std::size_t shard_nodes;
  } grid[] = {{1, 0}, {1, 64}, {4, 0}, {4, 64}};
  for (const auto& point : grid) {
    SCOPED_TRACE(testing::Message() << "threads=" << point.threads
                                    << " shard_nodes=" << point.shard_nodes);
    analysis::RunConfig on = config;
    on.threads = point.threads;
    on.shard_nodes = point.shard_nodes;
    on.observability.enable_stats = true;
    on.observability.stats_every = 1;
    obs::Registry::instance().reset();
    obs::trace_start(/*ring_capacity=*/4096);
    const analysis::RunResult result = analysis::run_protocol(workload, on);
    obs::trace_stop();

    EXPECT_EQ(base.cycle_digests, result.cycle_digests);
    EXPECT_EQ(base.news_messages, result.news_messages);
    EXPECT_EQ(base.gossip_messages, result.gossip_messages);
    EXPECT_EQ(base.scores.f1, result.scores.f1);
    // The run actually produced telemetry (the comparison is not vacuous).
    EXPECT_EQ(result.stats_series.size(), result.cycle_digests.size());
    EXPECT_GT(result.stats.value("engine.cycles"), 0u);
    EXPECT_GT(result.stats.value("engine.deliver.messages"), 0u);
    obs::set_enabled(false);
  }
}

// The similarity, item-profile and arena work counters are exact: a pure
// function of the seed, so two runs agree, and so do 1, 2 and 4 worker
// threads (each worker counts the selections, news hops and snapshot
// records of the nodes it runs into its own lane). The record scorer
// decodes no more candidate ids than it is presented.
TEST(ObsDeterminism, ScoringAndItemProfileCountersExactAcrossRunsAndThreads) {
  StatsGuard guard;
  const data::Workload workload = obs_workload();
  auto counts = [&](unsigned threads) {
    analysis::RunConfig config = obs_run_config();
    config.threads = threads;
    config.observability.enable_stats = true;
    obs::Registry::instance().reset();
    const analysis::RunResult result = analysis::run_protocol(workload, config);
    obs::set_enabled(false);
    return std::tuple{result.stats.value("similarity.candidates"),
                      result.stats.value("similarity.entries_scanned"),
                      result.stats.value("similarity.entries_decoded"),
                      result.stats.value("beep.item_profile.encodes"),
                      result.stats.value("arena.snapshot.encodes"),
                      result.stats.value("arena.stamp.creates")};
  };
  const auto first = counts(1);
  const auto [candidates, scanned, decoded, encodes, snapshot_encodes, stamp_creates] =
      first;
  EXPECT_GT(candidates, 0u);
  EXPECT_GT(scanned, candidates);
  EXPECT_GT(decoded, 0u);
  EXPECT_LE(decoded, scanned);
  EXPECT_GT(encodes, 0u);
  EXPECT_GT(snapshot_encodes, 0u);
  EXPECT_GT(stamp_creates, 0u);
  EXPECT_EQ(counts(1), first);
  EXPECT_EQ(counts(2), first);
  EXPECT_EQ(counts(4), first);
}

// The fault-layer work counters are exact too: burst-loss chains are
// created and walked, and duplicate copies injected, at commit on the main
// thread, so 1, 2 and 4 worker threads count the same chains, steps and
// duplicates.
TEST(ObsDeterminism, FaultCountersExactAcrossThreads) {
  StatsGuard guard;
  const data::Workload workload = obs_workload();
  auto counts = [&](unsigned threads) {
    analysis::RunConfig config = obs_run_config();
    config.threads = threads;
    config.network.burst.p_enter = 0.1;
    config.network.burst.p_exit = 0.3;
    config.network.burst.loss_bad = 0.6;
    config.network.duplicate_rate = 0.05;
    config.observability.enable_stats = true;
    obs::Registry::instance().reset();
    const analysis::RunResult result = analysis::run_protocol(workload, config);
    obs::set_enabled(false);
    return std::tuple{result.stats.value("sim.fault.link_chains"),
                      result.stats.value("sim.fault.chain_steps"),
                      result.stats.value("sim.fault.duplicated")};
  };
  const auto first = counts(1);
  const auto [chains, steps, duplicated] = first;
  EXPECT_GT(chains, 0u);
  EXPECT_GT(steps, chains);
  EXPECT_GT(duplicated, 0u);
  EXPECT_EQ(counts(1), first);
  EXPECT_EQ(counts(2), first);
  EXPECT_EQ(counts(4), first);
}

// Same contract across the fragment seam: P in-process partition workers
// with stats enabled must sum (mod 2^64) to the telemetry-off
// single-process digest series. Each fragment worker writes its own lanes;
// the runner deliberately skips the end-of-run merge in fragment mode, so
// enabling stats is write-only there — and still must not perturb anything.
TEST(ObsDeterminism, PartitionedDigestsBitIdenticalWithTelemetry) {
  StatsGuard guard;
  const data::Workload workload = obs_workload();
  analysis::RunConfig config = obs_run_config();

  obs::set_enabled(false);
  const analysis::RunResult base = analysis::run_protocol(workload, config);
  ASSERT_FALSE(base.cycle_digests.empty());

  for (const std::size_t partitions : {2ull, 4ull}) {
    SCOPED_TRACE(testing::Message() << "partitions=" << partitions);
    obs::Registry::instance().reset();
    std::vector<std::vector<int>> mesh = sim::socketpair_mesh(partitions);
    std::vector<std::vector<std::uint64_t>> partials(partitions);
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < partitions; ++w) {
      workers.emplace_back([&, w] {
        sim::SocketTransport transport(w, std::move(mesh[w]));
        analysis::RunConfig worker_config = config;
        worker_config.partitions = static_cast<int>(partitions);
        worker_config.transport = &transport;
        worker_config.observability.enable_stats = true;
        partials[w] = analysis::run_protocol(workload, worker_config).cycle_digests;
      });
    }
    for (std::thread& t : workers) t.join();
    obs::set_enabled(false);

    std::vector<std::uint64_t> sum = partials[0];
    for (std::size_t w = 1; w < partitions; ++w) {
      ASSERT_EQ(partials[w].size(), sum.size());
      for (std::size_t c = 0; c < sum.size(); ++c) sum[c] += partials[w][c];
    }
    EXPECT_EQ(base.cycle_digests, sum);
  }
}

}  // namespace
}  // namespace whatsup
