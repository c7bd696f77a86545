// Scale-smoke driver: one full WhatsUp deployment (RPS + WUP clustering +
// BEEP dissemination + metrics tracking) at the node count given on the
// command line, reported as the single Google Benchmark row
// BM_WhatsUpSim_Custom:
//
//   items_per_second == simulated cycles / second
//
// CI's scale-smoke job runs it at 100k and 1M nodes and gates the memory
// counters below. Fixed-size end-to-end measurements, with recommendation
// quality attached, live in bench/e2e/; scenario timelines, partitioned
// runs and telemetry export in bench_scenario_sim.
//
// The row reports memory counters read from /proc/self/status:
//   peak_rss_mb          VmHWM — peak resident set during THIS row (MiB)
//   peak_bytes_per_node  peak_rss_mb / nodes
//   mem_isolated         1 when the row's peak was isolated from earlier
//                        allocations, 0 when it may carry an older
//                        high-water mark
// VmHWM is a process-lifetime high-water mark, so the row resets the
// kernel's high-water mark first (writing "5" to /proc/self/clear_refs);
// where that interface is unavailable, the row re-runs once in a forked
// child and reports the child's own VmHWM.
//
// Flags (parsed before Google Benchmark's own; unknown ones are refused):
//   --nodes=N     node count (required)
//   --threads=N   engine worker threads (default: hardware concurrency)
//   --items=N     item count (default: nodes/20, at least 50, so large-node
//                 runs do not degenerate into an allocator benchmark)
//   --cycles=N    publication cycles (default: 50)
//   --warmup=N    warmup cycles (default: 5)
//   --drain=N     drain cycles (default: 15) — the million-node CI smoke
//                 run shrinks warmup/drain so it fits the job budget on one
//                 core
//   --spread=K    stagger each cycle's publication burst over the next K
//                 cycles (RunConfig::publish_spread) — de-synchronizes the
//                 storm that otherwise sets the peak-RSS envelope
//   --progress=N  heartbeat to stderr every N cycles (cycles/s, ETA, RSS)
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>

#ifdef __unix__
#include <sys/wait.h>
#include <unistd.h>
#endif
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "analysis/runner.hpp"
#include "dataset/survey.hpp"
#include "obs/registry.hpp"

namespace whatsup {
namespace {

// Reads an integer field (kiB) from /proc/self/status; 0 when the key or
// the file is unavailable (non-Linux).
std::size_t proc_status_kib(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t value = 0;
  const std::size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      value = std::strtoull(line + key_len + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return value;
}

// Resets the kernel's peak-RSS high-water mark to the CURRENT resident set
// (echo 5 > /proc/self/clear_refs), so the next VmHWM read reflects this
// row, not whichever earlier row in the sweep was largest.
bool reset_peak_rss() {
  // Return freed-but-retained allocator pages to the kernel first: the
  // reset pins the high-water mark to the CURRENT resident set, and an
  // earlier row's drained heap would otherwise become this row's floor.
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

// Fallback isolation when clear_refs is unavailable: run `body` once in a
// forked child and return the child's own VmHWM (KiB); 0 on failure.
std::size_t forked_peak_kib(const std::function<void()>& body) {
#ifdef __unix__
  int fds[2];
  if (pipe(fds) != 0) return 0;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return 0;
  }
  if (pid == 0) {
    close(fds[0]);
    body();
    const std::size_t kib = proc_status_kib("VmHWM");
    (void)!write(fds[1], &kib, sizeof(kib));
    _exit(0);
  }
  close(fds[1]);
  std::size_t kib = 0;
  if (read(fds[0], &kib, sizeof(kib)) != static_cast<ssize_t>(sizeof(kib))) kib = 0;
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  return kib;
#else
  (void)body;
  return 0;
#endif
}

struct MacroOptions {
  std::size_t nodes = 0;  // required
  unsigned threads = 0;   // 0 = hardware concurrency
  std::size_t items = 0;  // 0 = nodes/20, at least 50
  Cycle cycles = 50;
  Cycle warmup = 5;
  Cycle drain = 15;
  Cycle spread = 0;
  Cycle progress = 0;     // 0 = off
};

MacroOptions g_options;

data::Workload macro_workload(std::size_t users, std::size_t items) {
  Rng rng(11);
  data::SurveyConfig config;
  config.base_users = users / 2;
  config.base_items = items / 2;
  config.replication = 2;
  return data::make_survey(config, rng);
}

void BM_WhatsUpSim_Custom(benchmark::State& state) {
  const MacroOptions& options = g_options;
  const unsigned threads = options.threads != 0
                               ? options.threads
                               : std::max(1u, std::thread::hardware_concurrency());
  const std::size_t items = options.items != 0
                                ? options.items
                                : std::max<std::size_t>(options.nodes / 20, 50);
  const data::Workload workload = macro_workload(options.nodes, items);
  analysis::RunConfig config;
  config.approach = analysis::Approach::kWhatsUp;
  config.fanout = 8;
  config.seed = 3;
  config.warmup_cycles = options.warmup;
  config.publish_cycles = options.cycles;
  config.drain_cycles = options.drain;
  config.measure_margin = 13;
  config.publish_spread = options.spread;
  config.threads = threads;
  config.observability.progress_every = options.progress;
  const auto total = static_cast<std::size_t>(config.total_cycles());
  // Isolate this row's memory counters from whatever ran before it.
  const bool reset_ok = reset_peak_rss();
  for (auto _ : state) {
    // Fresh counters per run (cheap: memset over a few fixed-size lanes).
    if (config.observability.enabled()) obs::Registry::instance().reset();
    const analysis::RunResult result = analysis::run_protocol(workload, config);
    benchmark::DoNotOptimize(result.scores.f1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * total));
  state.counters["nodes"] = static_cast<double>(workload.num_users());
  state.counters["cycles"] = static_cast<double>(total);
  state.counters["threads"] = static_cast<double>(threads);
  double peak_kib = static_cast<double>(proc_status_kib("VmHWM"));
  bool isolated = reset_ok;
  if (!reset_ok) {
    // clear_refs unavailable: re-run once in a forked child and report the
    // child's own high-water mark.
    const std::size_t child_kib = forked_peak_kib([&] {
      const analysis::RunResult result = analysis::run_protocol(workload, config);
      benchmark::DoNotOptimize(result.scores.f1);
    });
    if (child_kib != 0) {
      peak_kib = static_cast<double>(child_kib);
      isolated = true;
    }
  }
  state.counters["mem_isolated"] = isolated ? 1.0 : 0.0;
  state.counters["peak_rss_mb"] = peak_kib / 1024.0;
  state.counters["peak_bytes_per_node"] =
      peak_kib * 1024.0 / static_cast<double>(workload.num_users());
}

// Consumes the flags above (also in "--flag value" form) and compacts
// argv so Google Benchmark never sees them. Anything left that Google
// Benchmark does not know either is refused in main().
void parse_local_flags(int& argc, char** argv) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const auto match = [&](const char* name, std::string& value) {
      const std::string prefix = std::string("--") + name;
      if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) != 0) return false;
      const char* rest = argv[i] + prefix.size();
      if (*rest == '=') {
        value = rest + 1;
        return true;
      }
      if (*rest == '\0' && i + 1 < argc) {
        value = argv[++i];
        return true;
      }
      return false;
    };
    const auto to_cycle = [](const std::string& value) {
      return static_cast<Cycle>(std::strtol(value.c_str(), nullptr, 10));
    };
    std::string value;
    if (match("nodes", value)) {
      g_options.nodes = static_cast<std::size_t>(std::strtoull(value.c_str(), nullptr, 10));
    } else if (match("threads", value)) {
      g_options.threads = static_cast<unsigned>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (match("items", value)) {
      g_options.items = static_cast<std::size_t>(std::strtoull(value.c_str(), nullptr, 10));
    } else if (match("cycles", value)) {
      g_options.cycles = to_cycle(value);
    } else if (match("warmup", value)) {
      g_options.warmup = to_cycle(value);
    } else if (match("drain", value)) {
      g_options.drain = to_cycle(value);
    } else if (match("spread", value)) {
      g_options.spread = to_cycle(value);
    } else if (match("progress", value)) {
      g_options.progress = to_cycle(value);
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
}

}  // namespace
}  // namespace whatsup

int main(int argc, char** argv) {
  whatsup::parse_local_flags(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  if (whatsup::g_options.nodes == 0) {
    std::fprintf(stderr, "error: --nodes=N is required\n");
    return 2;
  }
  // UseRealTime: cycles/s must reflect the wall clock, not the calling
  // thread's CPU time (which sleeps at phase barriers while the pool works).
  benchmark::RegisterBenchmark("BM_WhatsUpSim_Custom", whatsup::BM_WhatsUpSim_Custom)
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
