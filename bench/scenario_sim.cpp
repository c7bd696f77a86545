// Scenario runner: loads a declarative .scn event timeline (src/scenario/),
// drives one full WhatsUp deployment under it, and prints the per-window
// metric table — recall/precision before/during/after each event — plus a
// trajectory fingerprint for reproducibility checks.
//
//   bench_scenario_sim --scenario scenarios/kitchen_sink.scn [--scale 0.5]
//       [--workload survey] [--seed N] [--fanout F] [--threads T]
//       [--shard-nodes W] [--partitions P] [--progress N]
//       [--stats-json F] [--stats-every N] [--trace F]
//
// Telemetry (src/obs/): --stats-json enables the stats registry and writes
// the per-cycle series plus the end-of-run snapshot; --trace captures
// WUP_TRACE_SCOPE spans as Chrome trace-event JSON; --progress prints a
// heartbeat to stderr. All three leave the trajectory fingerprint
// bit-identical (the obs determinism contract; CI's telemetry-smoke job
// diffs the fingerprints).
//
// The run is extended so the timeline's horizon always fits inside the
// publication+drain phases. Fixed-seed output is bit-identical for any
// --threads / --shard-nodes (the determinism suite pins this); the
// fingerprint line makes that easy to eyeball across invocations.
//
// --partitions P > 1 forks P lockstep worker processes over a socketpair
// mesh (bench/partition_launcher.hpp), each running one node fragment;
// per-window tables are skipped (workers hold partial metrics) but the
// trajectory fingerprint line is printed in the exact single-process
// format — the distributed-smoke CI job diffs the two.
#include <algorithm>
#include <fstream>
#include <iostream>

#include "analysis/experiments.hpp"
#include "analysis/runner.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "obs/registry.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "partition_launcher.hpp"
#include "scenario/scenario.hpp"

namespace {

// FNV-1a over the per-cycle tracker digests: one number that pins the
// whole measured trajectory (equal across --threads / --shard-nodes /
// --partitions).
void print_fingerprint(const std::vector<std::uint64_t>& cycle_digests) {
  std::uint64_t fingerprint = 0xcbf29ce484222325ULL;
  for (const std::uint64_t digest : cycle_digests) {
    for (int byte = 0; byte < 8; ++byte) {
      fingerprint ^= (digest >> (8 * byte)) & 0xff;
      fingerprint *= 0x100000001b3ULL;
    }
  }
  std::cout << "Trajectory fingerprint: " << std::hex << fingerprint << std::dec
            << " over " << cycle_digests.size() << " cycles\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace whatsup;
  Flags flags(argc, argv);
  const std::string spec_path =
      flags.get_string("scenario", "", "path to the .scn scenario spec (required)");
  const std::string workload_name =
      flags.get_string("workload", "survey", "workload: synthetic | digg | survey");
  const double scale = flags.get_double("scale", 0.5, "workload scale");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42, "RNG seed"));
  const int fanout = static_cast<int>(flags.get_int("fanout", 8, "BEEP fLIKE"));
  const auto threads = static_cast<unsigned>(
      flags.get_int("threads", 1, "engine worker threads (0 = hardware concurrency)"));
  const auto shard_nodes = static_cast<std::size_t>(
      flags.get_int("shard-nodes", 0, "nodes per shard (0 = engine default)"));
  const auto partitions = static_cast<std::size_t>(flags.get_int(
      "partitions", 1, "worker processes (socket transport); 1 = in-process"));
  const auto progress = static_cast<Cycle>(
      flags.get_int("progress", 0, "heartbeat to stderr every N cycles (0 = off)"));
  const std::string stats_json = flags.get_string(
      "stats-json", "", "write per-cycle stats series + final snapshot to FILE");
  const auto stats_every = static_cast<Cycle>(flags.get_int(
      "stats-every", 1, "stats series sampling period in cycles"));
  const std::string trace_path = flags.get_string(
      "trace", "", "write Chrome trace-event JSON of WUP_TRACE_SCOPE spans to FILE");
  if (flags.maybe_print_help(std::cout)) return 0;
  if (flags.reject_unknown(std::cerr)) return 2;
  if (spec_path.empty()) {
    std::cerr << "error: --scenario <file.scn> is required (see scenarios/)\n";
    return 1;
  }

  scenario::Timeline timeline;
  try {
    timeline = scenario::parse_file(spec_path);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }

  const data::Workload workload =
      analysis::standard_workload(workload_name, seed, scale);

  analysis::RunConfig config = analysis::default_run_config(seed);
  config.approach = analysis::Approach::kWhatsUp;
  config.fanout = fanout;
  config.threads = threads;
  config.shard_nodes = shard_nodes;
  config.collect_cycle_digests = true;
  config.scenario = timeline;
  config.fit_scenario_horizon();  // make sure every event fires

  config.observability.progress_every = progress;
  if (!stats_json.empty()) {
    config.observability.enable_stats = true;
    config.observability.stats_every = std::max<Cycle>(stats_every, 1);
  }
  if (config.observability.enabled()) obs::Registry::instance().reset();
  if (!trace_path.empty()) obs::trace_start();

  std::cout << "Scenario '" << timeline.name << "' (" << spec_path << "), "
            << timeline.events().size() << " events, horizon " << timeline.horizon()
            << ":\n";
  for (const scenario::Event& event : timeline.events()) {
    std::cout << "  " << scenario::to_spec_line(event) << '\n';
  }
  std::cout << "Workload " << workload.name << ": " << workload.num_users()
            << " users, " << workload.num_items() << " items"
            << (timeline.num_adversaries() > 0
                    ? " (+" + std::to_string(timeline.num_adversaries()) +
                          " adversary nodes, " +
                          std::to_string(timeline.num_spam_items()) + " spam items)"
                    : std::string())
            << "; " << config.total_cycles() << " cycles, threads=" << threads
            << (partitions > 1 ? ", partitions=" + std::to_string(partitions)
                               : std::string())
            << "\n\n";

  if (partitions > 1) {
    // Distributed mode: fork one worker per fragment, sum the partial
    // per-cycle digests, and print the fingerprint in the single-process
    // format. Score tables are skipped — each worker holds only its own
    // fragment's metrics. Stats/trace files are skipped too: the spans and
    // lanes live in the forked fragment processes, not here.
    if (!stats_json.empty() || !trace_path.empty()) {
      std::cerr << "note: --stats-json/--trace emit no files in partitioned "
                   "mode (telemetry lives in the fragment processes)\n";
    }
    std::cout.flush();  // children inherit the stream buffer
    const std::vector<std::uint64_t> digests = bench::run_partitioned(
        partitions, [&](sim::Transport& transport) {
          analysis::RunConfig worker_config = config;
          worker_config.partitions = static_cast<int>(partitions);
          worker_config.transport = &transport;
          return analysis::run_protocol(workload, worker_config).cycle_digests;
        });
    print_fingerprint(digests);
    return 0;
  }

  const analysis::RunResult result = analysis::run_protocol(workload, config);

  if (!trace_path.empty()) {
    obs::trace_stop();
    std::ofstream out(trace_path);
    const std::size_t events = obs::trace_write_json(out);
    std::cerr << "[trace] wrote " << events << " span(s) to " << trace_path
              << '\n';
  }
  if (!stats_json.empty()) {
    std::ofstream out(stats_json);
    obs::write_stats_json(out, result.stats_series, result.stats);
    std::cerr << "[stats] wrote " << result.stats_series.size()
              << " sample(s) to " << stats_json << '\n';
  }

  Table table({"Phase", "Cycles", "Items", "Precision", "Recall", "F1"});
  for (const metrics::WindowScores& ws : result.windows) {
    table.add_row({ws.window.label,
                   "[" + std::to_string(ws.window.begin) + ", " +
                       std::to_string(ws.window.end) + ")",
                   std::to_string(ws.scores.items), fixed(ws.scores.precision, 3),
                   fixed(ws.scores.recall, 3), fixed(ws.scores.f1, 3)});
  }
  table.print(std::cout, "Per-window scores around each event");

  std::cout << "\nOverall: precision=" << fixed(result.scores.precision, 3)
            << " recall=" << fixed(result.scores.recall, 3)
            << " f1=" << fixed(result.scores.f1, 3) << " over "
            << result.scores.items << " measured items\n";
  std::cout << "Traffic: " << result.news_messages << " news + "
            << result.gossip_messages << " gossip messages ("
            << fixed(result.msgs_per_user, 1) << " msgs/user)\n";

  print_fingerprint(result.cycle_digests);
  return 0;
}
