// Hostile-network recovery: the same WhatsUp deployment run through the
// planetlab scenario (bursty Gilbert–Elliott loss, degraded links with
// duplication/reordering, rotating churn, a crash wave) twice — once
// fire-and-forget, once with the ack/retransmit reliability layer and
// failure-aware view hygiene enabled — and the recall the reliability
// layer buys back, per scenario phase, next to what it costs in control
// traffic and redundancy.
#include <iostream>
#include <string>

#include "analysis/experiments.hpp"
#include "analysis/runner.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "scenario/scenario.hpp"

int main(int argc, char** argv) {
  using namespace whatsup;
  Flags flags(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 11, "RNG seed"));
  const int fanout = static_cast<int>(flags.get_int("fanout", 6, "BEEP fLIKE"));
  const auto threads = static_cast<unsigned>(
      flags.get_int("threads", 0, "engine worker threads (0 = hardware concurrency)"));
  const std::string scn =
      flags.get_string("scenario", "scenarios/planetlab.scn", "scenario spec file");
  if (flags.maybe_print_help(std::cout)) return 0;
  if (flags.reject_unknown(std::cerr)) return 2;

  const data::Workload workload = analysis::standard_workload("survey", seed, 0.5);
  const scenario::Timeline timeline = scenario::parse_file(scn);
  std::cout << "Scenario '" << timeline.name << "' (" << timeline.events().size()
            << " events)\n\n";

  analysis::RunConfig config = analysis::default_run_config(seed);
  config.approach = analysis::Approach::kWhatsUp;
  config.fanout = fanout;
  config.threads = threads;
  config.scenario = timeline;
  config.fit_scenario_horizon();

  // Baseline: BEEP as published — fire-and-forget under a hostile network.
  const analysis::RunResult plain = analysis::run_protocol(workload, config);

  // Reliability on: per-copy acks with timeout/backoff retransmission,
  // plus view hygiene so crashed peers drain out of the gossip views.
  config.reliability.enabled = true;
  config.view_hygiene.max_age = 20;
  config.view_hygiene.suspicion_limit = 2;
  const analysis::RunResult reliable = analysis::run_protocol(workload, config);

  Table phases({"Phase", "Cycles", "Recall off", "Recall on", "Latency off", "Latency on"});
  for (std::size_t i = 0; i < plain.windows.size() && i < reliable.windows.size(); ++i) {
    const metrics::Window& w = plain.windows[i].window;
    const auto latency = [](const analysis::RunResult& r, std::size_t idx) {
      return idx < r.reliability.window_latency.size()
                 ? fixed(r.reliability.window_latency[idx], 1)
                 : std::string("-");
    };
    phases.add_row({w.label,
                    "[" + std::to_string(w.begin) + ", " + std::to_string(w.end) + ")",
                    fixed(plain.windows[i].scores.recall, 3),
                    fixed(reliable.windows[i].scores.recall, 3), latency(plain, i),
                    latency(reliable, i)});
  }
  phases.print(std::cout, "Recall and delivery latency per scenario phase");
  std::cout << '\n';

  Table summary({"Metric", "Reliability off", "Reliability on"});
  summary.add_row({"recall", fixed(plain.scores.recall, 3), fixed(reliable.scores.recall, 3)});
  summary.add_row({"precision", fixed(plain.scores.precision, 3),
                   fixed(reliable.scores.precision, 3)});
  summary.add_row({"mean delivery latency (cycles)", fixed(plain.reliability.mean_latency, 2),
                   fixed(reliable.reliability.mean_latency, 2)});
  summary.add_row({"redundancy (dups per delivery)",
                   fixed(plain.reliability.redundancy_ratio, 3),
                   fixed(reliable.reliability.redundancy_ratio, 3)});
  summary.add_row({"retransmits", std::to_string(plain.reliability.retransmits),
                   std::to_string(reliable.reliability.retransmits)});
  summary.add_row({"ack messages", std::to_string(plain.reliability.ack_messages),
                   std::to_string(reliable.reliability.ack_messages)});
  summary.add_row({"news messages", std::to_string(plain.news_messages),
                   std::to_string(reliable.news_messages)});
  summary.add_row({"kbps/node total", fixed(plain.kbps_total, 2), fixed(reliable.kbps_total, 2)});
  summary.print(std::cout, "What the reliability layer buys, and what it costs");

  std::cout << "\nRecall recovered: " << fixed(plain.scores.recall, 3) << " -> "
            << fixed(reliable.scores.recall, 3) << " ("
            << fixed(reliable.scores.recall - plain.scores.recall, 3) << ")\n";
  return 0;
}
