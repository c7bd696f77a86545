// Golden trajectory anchor: committed fingerprints of fixed-seed runs.
//
// Every other determinism check compares configurations against each
// other (thread counts, shard widths, partition counts), so a change that
// shifts all of them the same way passes unnoticed. This suite pins the
// trajectories themselves, across commits: each row is the FNV-1a fold of
// RunResult::cycle_digests — the exact number bench/scenario_sim prints as
// "Trajectory fingerprint" — recorded once and never regenerated by a
// storage-only or perf-only change. A mismatch prints the new value.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/runner.hpp"
#include "net/network.hpp"
#include "scenario/scenario.hpp"

#ifndef WHATSUP_SOURCE_DIR
#error "WHATSUP_SOURCE_DIR must point at the repository root (set by CMake)"
#endif

namespace whatsup {
namespace {

constexpr std::uint64_t kSeed = 42;
constexpr double kScale = 0.25;  // survey at replication 1: 120 users

// FNV-1a over the little-endian bytes of each per-cycle digest (the fold in
// bench/scenario_sim.cpp's print_fingerprint).
std::string fingerprint(const std::vector<std::uint64_t>& cycle_digests) {
  std::uint64_t fp = 0xcbf29ce484222325ULL;
  for (const std::uint64_t digest : cycle_digests) {
    for (int byte = 0; byte < 8; ++byte) {
      fp ^= (digest >> (8 * byte)) & 0xff;
      fp *= 0x100000001b3ULL;
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(fp));
  return hex;
}

// bench/scenario_sim's configuration: WhatsUp, fanout 8, one thread.
analysis::RunConfig scenario_config() {
  analysis::RunConfig config = analysis::default_run_config(kSeed);
  config.approach = analysis::Approach::kWhatsUp;
  config.fanout = 8;
  config.threads = 1;
  config.collect_cycle_digests = true;
  return config;
}

struct GoldenScenario {
  const char* name;  // scenarios/<name>.scn
  const char* fingerprint;
  std::size_t cycles;
};

// Expected values. Change a row only with a change that is MEANT to move
// the trajectory, and say so in that change's description.
constexpr GoldenScenario kScenarios[] = {
    {"adversary", "419eed28c21b7643", 67},
    {"churn_wave", "43ebdb03d7dd1cb3", 67},
    {"flash_crowd", "2401145f0c90f93a", 67},
    {"kitchen_sink", "d98a200d7d7a7876", 67},
    {"partition", "6e113e28f2618e92", 67},
    {"planetlab", "49c8b3aef4939ac6", 67},
};

class GoldenScenarioTest : public ::testing::TestWithParam<GoldenScenario> {};

TEST_P(GoldenScenarioTest, FingerprintMatchesCommittedValue) {
  const GoldenScenario& golden = GetParam();
  const std::string path =
      std::string(WHATSUP_SOURCE_DIR) + "/scenarios/" + golden.name + ".scn";
  const data::Workload workload = analysis::standard_workload("survey", kSeed, kScale);
  analysis::RunConfig config = scenario_config();
  config.scenario = scenario::parse_file(path);
  config.fit_scenario_horizon();  // every event fires, as in scenario_sim

  const analysis::RunResult result = analysis::run_protocol(workload, config);
  EXPECT_EQ(result.cycle_digests.size(), golden.cycles);
  EXPECT_EQ(fingerprint(result.cycle_digests), golden.fingerprint)
      << "trajectory of scenarios/" << golden.name << ".scn moved";
}

INSTANTIATE_TEST_SUITE_P(
    Bundled, GoldenScenarioTest, ::testing::ValuesIn(kScenarios),
    [](const ::testing::TestParamInfo<GoldenScenario>& info) {
      return std::string(info.param.name);
    });

// The fault stack with every opt-in layer on: the PlanetLab fault preset
// (bursty loss, degraded links, crashes), acks and retransmits, and view
// hygiene — at 240 users, without a scenario.
TEST(Golden, PlanetLabFaultsWithReliabilityAndHygiene) {
  const data::Workload workload = analysis::standard_workload("survey", kSeed, 0.5);
  analysis::RunConfig config = scenario_config();
  config.network = net::NetworkConfig::planetlab_faults();
  config.reliability.enabled = true;
  config.view_hygiene.max_age = 20;
  config.view_hygiene.suspicion_limit = 2;

  const analysis::RunResult result = analysis::run_protocol(workload, config);
  EXPECT_EQ(result.cycle_digests.size(), 67u);
  EXPECT_EQ(fingerprint(result.cycle_digests), "d42e9aefbfc9a51e");
}

// The same stack over the ModelNet fault preset (rare short loss bursts,
// duplicates and reordering on the cluster network), at 120 users.
TEST(Golden, ModelNetFaultsWithReliabilityAndHygiene) {
  const data::Workload workload = analysis::standard_workload("survey", kSeed, kScale);
  analysis::RunConfig config = scenario_config();
  config.network = net::NetworkConfig::modelnet_faults();
  config.reliability.enabled = true;
  config.view_hygiene.max_age = 20;
  config.view_hygiene.suspicion_limit = 2;

  const analysis::RunResult result = analysis::run_protocol(workload, config);
  EXPECT_EQ(result.cycle_digests.size(), 67u);
  EXPECT_EQ(fingerprint(result.cycle_digests), "a31f6cb5e19a6401");
}

}  // namespace
}  // namespace whatsup
