// Community digest: WhatsUp over the synthetic Arxiv-community workload.
//
// Builds a collaboration graph, detects its communities with our CNM
// implementation (the paper's §IV-A pipeline), runs WhatsUp, and prints a
// per-community quality digest — showing that the implicit overlay aligns
// with the ground-truth communities without anyone declaring them.
#include <iostream>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/runner.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) {
  using namespace whatsup;
  Flags flags(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 3, "RNG seed"));
  const double scale = flags.get_double("scale", 0.2, "workload scale (1 = 3703 authors)");
  const int fanout = static_cast<int>(flags.get_int("fanout", 10, "BEEP fLIKE"));
  const auto threads = static_cast<unsigned>(
      flags.get_int("threads", 0, "engine worker threads (0 = hardware concurrency)"));
  if (flags.maybe_print_help(std::cout)) return 0;
  if (flags.reject_unknown(std::cerr)) return 2;

  const data::Workload w = analysis::standard_workload("synthetic", seed, scale);
  std::cout << "Synthetic collaboration network: " << w.num_users() << " authors in "
            << w.n_topics << " detected communities, " << w.num_items()
            << " news items (each relevant to exactly one community).\n\n";

  analysis::RunConfig config = analysis::default_run_config(seed);
  config.approach = analysis::Approach::kWhatsUp;
  config.fanout = fanout;
  config.threads = threads;
  const analysis::RunResult r = analysis::run_protocol(w, config);

  // Per-community recall/precision over the measured items.
  std::vector<double> recall_sum(w.n_topics, 0.0), precision_sum(w.n_topics, 0.0);
  std::vector<std::size_t> items(w.n_topics, 0), audience(w.n_topics, 0);
  for (ItemIdx item : r.measured) {
    const auto topic = static_cast<std::size_t>(w.topic_of(item));
    const auto& reach = r.reached[item];
    const auto& interest = w.interested(item);
    std::size_t n_reached = reach.count();
    std::size_t n_interested = interest.count();
    std::size_t hits = reach.intersect_count(interest);
    const NodeId src = w.news[item].source;
    if (reach.test(src)) {
      --n_reached;
      if (interest.test(src)) --hits;
    }
    if (interest.test(src)) --n_interested;
    if (n_interested > 0) {
      recall_sum[topic] += static_cast<double>(hits) / static_cast<double>(n_interested);
    }
    precision_sum[topic] +=
        n_reached > 0 ? static_cast<double>(hits) / static_cast<double>(n_reached) : 1.0;
    ++items[topic];
    audience[topic] = interest.count();
  }

  Table table({"Community", "Members", "Items", "Recall", "Precision"});
  for (std::size_t t = 0; t < w.n_topics; ++t) {
    if (items[t] == 0) continue;
    table.add_row({std::to_string(t), std::to_string(audience[t]),
                   std::to_string(items[t]),
                   fixed(recall_sum[t] / static_cast<double>(items[t]), 2),
                   fixed(precision_sum[t] / static_cast<double>(items[t]), 2)});
  }
  table.print(std::cout, "Per-community dissemination quality (WhatsUp, fLIKE=" +
                             std::to_string(fanout) + ")");
  std::cout << "\nOverall: precision " << fixed(r.scores.precision, 2) << ", recall "
            << fixed(r.scores.recall, 2) << ", F1 " << fixed(r.scores.f1, 2)
            << " — the paper notes WhatsUp performs best exactly when user\n"
               "communities are disjoint, as they are here (§VII).\n";
  return 0;
}
