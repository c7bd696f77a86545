// Equivalence tests for the top-K view selection: View::assign_closest
// replaced the seed's shuffle + stable_sort with shuffle + nth_element +
// bounded sort. Under identical RNG streams the kept members — and their
// order — must be exactly what the seed implementation produced.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gossip/view.hpp"

namespace whatsup::gossip {
namespace {

Profile random_profile(Rng& rng, std::size_t entries, ItemId universe) {
  Profile p;
  for (std::size_t i = 0; i < entries; ++i) {
    p.set(rng.index(universe) + 1, static_cast<Cycle>(rng.index(40)),
          rng.bernoulli(0.5) ? 1.0 : 0.0);
  }
  return p;
}

// The seed implementation, verbatim: shuffle for tie-breaking, score, full
// stable sort by descending score, keep the first `capacity`.
std::vector<net::Descriptor> seed_assign_closest(std::vector<net::Descriptor> candidates,
                                                 const Profile& own_profile,
                                                 Metric metric, Rng& rng,
                                                 std::size_t capacity) {
  rng.shuffle(candidates);
  std::vector<std::pair<double, std::size_t>> scored;
  scored.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    scored.emplace_back(similarity(metric, own_profile, candidates[i].decoded_profile()), i);
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<net::Descriptor> kept;
  kept.reserve(std::min(capacity, candidates.size()));
  for (std::size_t r = 0; r < scored.size() && kept.size() < capacity; ++r) {
    kept.push_back(candidates[scored[r].second]);
  }
  return kept;
}

// Borrowed candidates over `candidates` (View's merge policies take
// pointers into the sources).
std::vector<const net::Descriptor*> refs(const std::vector<net::Descriptor>& candidates) {
  std::vector<const net::Descriptor*> out;
  for (const net::Descriptor& d : candidates) out.push_back(&d);
  return out;
}

void expect_same_members(const View& view, const std::vector<net::Descriptor>& expected) {
  ASSERT_EQ(view.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(view.entries()[i].node, expected[i].node) << "position " << i;
    EXPECT_EQ(view.entries()[i].timestamp(), expected[i].timestamp()) << "position " << i;
  }
}

TEST(TopKSelect, MatchesSeedSortUnderFixedSeeds) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    Rng setup(seed + 1000);
    const std::size_t n = setup.index(60);
    const std::size_t capacity = setup.index(24) + 1;
    const Profile own = random_profile(setup, 25, 80);
    std::vector<net::Descriptor> candidates;
    for (std::size_t i = 0; i < n; ++i) {
      candidates.push_back(net::make_descriptor(
          static_cast<NodeId>(i), static_cast<Cycle>(setup.index(50)),
          random_profile(setup, setup.index(30), 80)));
    }
    // Identical RNG streams for reference and implementation.
    Rng rng_ref(seed), rng_new(seed);
    const auto expected =
        seed_assign_closest(candidates, own, Metric::kWup, rng_ref, capacity);

    View view(capacity);
    auto borrowed = refs(candidates);
    view.assign_closest(borrowed, own, Metric::kWup, rng_new);
    expect_same_members(view, expected);
  }
}

TEST(TopKSelect, MatchesSeedSortOnAllTies) {
  // Cold start: empty own profile, every similarity 0 — selection is pure
  // shuffle-based tie-breaking and must still match the seed exactly.
  const Profile own;
  std::vector<net::Descriptor> candidates;
  for (NodeId v = 0; v < 40; ++v) {
    candidates.push_back(net::make_descriptor(v, static_cast<Cycle>(v), Profile{}));
  }
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    Rng rng_ref(seed), rng_new(seed);
    const auto expected = seed_assign_closest(candidates, own, Metric::kWup, rng_ref, 7);
    View view(7);
    auto borrowed = refs(candidates);
    view.assign_closest(borrowed, own, Metric::kWup, rng_new);
    expect_same_members(view, expected);
  }
}

TEST(TopKSelect, CapacityLargerThanCandidates) {
  Rng setup(5);
  const Profile own = random_profile(setup, 10, 40);
  std::vector<net::Descriptor> candidates;
  for (NodeId v = 0; v < 5; ++v) {
    candidates.push_back(
        net::make_descriptor(v, 0, random_profile(setup, 8, 40)));
  }
  Rng rng_ref(9), rng_new(9);
  const auto expected = seed_assign_closest(candidates, own, Metric::kCosine, rng_ref, 20);
  View view(20);
  auto borrowed = refs(candidates);
  view.assign_closest(borrowed, own, Metric::kCosine, rng_new);
  expect_same_members(view, expected);
}

}  // namespace
}  // namespace whatsup::gossip
