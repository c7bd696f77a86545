// Quickstart: deploy a small WhatsUp network over the survey-style
// workload, disseminate a news stream, and print recommendation quality.
//
//   ./examples/quickstart [--users=240] [--fanout=8] [--seed=42]
//
// This is the 30-line tour of the public API: build a workload, pick a
// RunConfig, call run_protocol, read the scores.
#include <iostream>

#include "analysis/experiments.hpp"
#include "analysis/runner.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) {
  using namespace whatsup;
  Flags flags(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42, "RNG seed"));
  const int fanout = static_cast<int>(flags.get_int("fanout", 8, "BEEP fLIKE"));
  const double scale = flags.get_double("scale", 0.5, "workload scale (1 = 480 users)");
  const auto threads = static_cast<unsigned>(
      flags.get_int("threads", 0, "engine worker threads (0 = hardware concurrency)"));
  if (flags.maybe_print_help(std::cout)) return 0;
  if (flags.reject_unknown(std::cerr)) return 2;

  // 1. A workload: who likes what, who publishes what, and when.
  const data::Workload workload = analysis::standard_workload("survey", seed, scale);
  std::cout << "Workload: " << workload.name << " with " << workload.num_users()
            << " users and " << workload.num_items() << " news items\n";

  // 2. A deployment: every user runs RPS + WUP + BEEP (paper defaults,
  //    Table II), over a perfect network.
  analysis::RunConfig config = analysis::default_run_config(seed);
  config.approach = analysis::Approach::kWhatsUp;
  config.fanout = fanout;
  config.threads = threads;

  // 3. Run and inspect.
  const analysis::RunResult result = analysis::run_protocol(workload, config);
  Table table({"Metric", "Value"});
  table.add_row({"Precision", fixed(result.scores.precision, 3)});
  table.add_row({"Recall", fixed(result.scores.recall, 3)});
  table.add_row({"F1-Score", fixed(result.scores.f1, 3)});
  table.add_row({"News messages", si_count(static_cast<double>(result.news_messages))});
  table.add_row({"Gossip messages", si_count(static_cast<double>(result.gossip_messages))});
  table.add_row({"Messages / user", fixed(result.msgs_per_user, 1)});
  table.add_row({"Largest SCC fraction", fixed(result.overlay.lscc_fraction, 3)});
  table.print(std::cout, "WhatsUp quickstart (fLIKE=" + std::to_string(fanout) + ")");

  std::cout << "\nTip: rerun with --fanout=3 to watch recall collapse, or\n"
               "     compare against plain gossip via bench/table3_best_performance.\n";
  return 0;
}
