// Shared flag plumbing for the per-table/figure bench binaries.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>

#include "common/flags.hpp"

namespace whatsup::bench {

struct BenchOptions {
  std::uint64_t seed = 42;
  double scale = 0.5;
  int trials = 1;
  bool help = false;
};

// Parses the common flags; `default_scale` is per-binary (sized so the
// whole bench directory sweeps in minutes; --scale=1 is paper scale).
// An unknown flag exits with status 2.
inline BenchOptions parse_options(int argc, char** argv, double default_scale,
                                  int default_trials = 1) {
  Flags flags(argc, argv);
  BenchOptions options;
  options.seed = static_cast<std::uint64_t>(
      flags.get_int("seed", 42, "root RNG seed"));
  options.scale =
      flags.get_double("scale", default_scale, "workload scale (1 = paper Table I)");
  options.trials = static_cast<int>(flags.get_int("trials", default_trials,
                                                  "number of seeds averaged"));
  options.help = flags.maybe_print_help(std::cout);
  if (!options.help && flags.reject_unknown(std::cerr)) std::exit(2);
  return options;
}

}  // namespace whatsup::bench
