// Unified telemetry snapshot and emission surfaces.
//
// `Snapshot` is the one reporting path for run-level numbers: the merged
// stats registry plus the pre-existing one-off sources absorbed as gauges
// (`Engine::memory_stats()`, `Tracker::resident_bytes()`,
// `SnapshotArena::stats()`). Consumers — the `--stats-json` writer, the
// WHATSUP_MEM_STATS dump, run_bench.sh's stats summary — all read the
// same structure.
//
// `RunOptions` carries the observability knobs through `RunConfig` into
// `run_protocol`: a stderr heartbeat every N cycles and per-cycle registry
// sampling into a time series. Both are cycle hooks — they run at the
// barrier on the main thread, draw no RNG, and never feed back into the
// simulation, so fixed-seed trajectories are unchanged.
#pragma once

#include <cstdint>
#include <cstdio>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.hpp"
#include "obs/registry.hpp"

namespace whatsup::sim {
class Engine;
}
namespace whatsup::metrics {
class Tracker;
}

namespace whatsup::obs {

struct Snapshot {
  std::vector<MetricValue> metrics;  // sorted by name

  // Merged view of every registry lane (canonical order).
  static Snapshot collect();

  // One-off sources, absorbed as gauges so they ride the same pipe.
  void absorb(const sim::Engine& engine);      // engine.mem.*
  void absorb(const metrics::Tracker& tracker);  // tracker.resident_bytes
  void absorb_arena();                         // arena.* (SnapshotArena)

  void set_gauge(std::string_view name, std::uint64_t value,
                 std::string_view unit = "");

  const MetricValue* find(std::string_view name) const;
  std::uint64_t value(std::string_view name) const;  // 0 when absent

  // {"metrics": {...}} — histograms as {count, sum, bounds, buckets}.
  void write_json(std::ostream& out) const;
  // Single `prefix k=v k=v ...` line (the WHATSUP_MEM_STATS format).
  void write_text(std::FILE* out, const char* prefix) const;
};

// One sampled point of the per-cycle time series.
struct CycleSample {
  Cycle cycle = 0;
  Snapshot snapshot;
};

// {"series": [{"cycle": c, "metrics": {...}}...], "final": {...}}
void write_stats_json(std::ostream& out, const std::vector<CycleSample>& series,
                      const Snapshot& final_snapshot);

// Observability knobs carried by analysis::RunConfig.
struct RunOptions {
  Cycle progress_every = 0;  // heartbeat to stderr every N cycles (0 = off)
  Cycle stats_every = 0;     // sample the registry every N cycles (0 = off)
  bool enable_stats = false; // turn the registry on even without sampling

  bool enabled() const {
    return enable_stats || stats_every > 0 || progress_every > 0;
  }
};

// Resident set size from /proc/self/status, in KiB (0 if unavailable).
std::uint64_t resident_kib();

// Prints `[progress] cycle C/T  R cyc/s  eta Es  rss M MiB` to stderr every
// `every` cycles, plus registry-backed message totals when stats are on.
class Heartbeat {
 public:
  Heartbeat(Cycle total_cycles, Cycle every);
  void tick(Cycle cycle);  // call once per completed cycle

 private:
  Cycle total_;
  Cycle every_;
  std::uint64_t start_ns_;
  MetricId rss_gauge_;
};

}  // namespace whatsup::obs
