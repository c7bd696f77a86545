// Fig 3a/3d — F1 vs fanout and message cost (synthetic).
// Reproduces the corresponding table/figure of the WhatsUp paper
// (IPDPS 2013; abstract in PAPER.md). Flags: --seed, --scale, --trials, --help.
#include <iostream>

#include "analysis/experiments.hpp"
#include "bench_main.hpp"

int main(int argc, char** argv) {
  using namespace whatsup;
  const bench::BenchOptions options = bench::parse_options(argc, argv, 0.15, 1);
  if (options.help) return 0;
  analysis::print_fig3(std::cout, "synthetic", options.seed, options.scale, options.trials);
  return 0;
}
