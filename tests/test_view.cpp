#include "gossip/view.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <vector>

namespace whatsup::gossip {
namespace {

Profile liked(std::initializer_list<ItemId> ids) {
  Profile p;
  for (ItemId id : ids) p.set(id, 0, 1.0);
  return p;
}

net::Descriptor desc(NodeId node, Cycle ts, std::initializer_list<ItemId> likes = {}) {
  return net::make_descriptor(node, ts, liked(likes));
}

// Borrowed candidates over `candidates` (View's merge policies take
// pointers into the sources).
std::vector<const net::Descriptor*> refs(const std::vector<net::Descriptor>& candidates) {
  std::vector<const net::Descriptor*> out;
  for (const net::Descriptor& d : candidates) out.push_back(&d);
  return out;
}

TEST(View, InsertAndLookup) {
  View view(5);
  EXPECT_TRUE(view.empty());
  view.insert_or_refresh(desc(1, 10));
  view.insert_or_refresh(desc(2, 20));
  EXPECT_EQ(view.size(), 2u);
  EXPECT_TRUE(view.contains(1));
  EXPECT_FALSE(view.contains(3));
  ASSERT_NE(view.find(2), nullptr);
  EXPECT_EQ(view.find(2)->timestamp(), 20);
}

TEST(View, RefreshKeepsFreshest) {
  View view(5);
  view.insert_or_refresh(desc(1, 10, {7}));
  view.insert_or_refresh(desc(1, 5, {8}));  // stale: ignored
  EXPECT_EQ(view.size(), 1u);
  EXPECT_EQ(view.find(1)->timestamp(), 10);
  EXPECT_TRUE(view.find(1)->decoded_profile().contains(7));
  view.insert_or_refresh(desc(1, 30, {9}));  // fresher: replaces
  EXPECT_EQ(view.find(1)->timestamp(), 30);
  EXPECT_TRUE(view.find(1)->decoded_profile().contains(9));
}

// Regression: a fresher descriptor with a NULL profile snapshot used to
// replace the whole entry, silently downgrading a peer we had profile
// contents for. The refresh must keep the newer timestamp but retain the
// previously known snapshot.
TEST(View, RefreshWithNullSnapshotKeepsKnownProfile) {
  View view(5);
  view.insert_or_refresh(desc(1, 10, {7}));
  view.insert_or_refresh(net::Descriptor{1, 20, nullptr});  // fresher, bare
  ASSERT_NE(view.find(1), nullptr);
  EXPECT_EQ(view.find(1)->timestamp(), 20);          // timestamp refreshed
  ASSERT_TRUE(view.find(1)->has_profile());        // snapshot retained
  EXPECT_TRUE(view.find(1)->decoded_profile().contains(7));
  // A fresher descriptor WITH a snapshot still replaces normally.
  view.insert_or_refresh(desc(1, 30, {9}));
  EXPECT_TRUE(view.find(1)->decoded_profile().contains(9));
  EXPECT_FALSE(view.find(1)->decoded_profile().contains(7));
}

TEST(View, StaleNullSnapshotRefreshStillIgnored) {
  View view(5);
  view.insert_or_refresh(desc(1, 10, {7}));
  view.insert_or_refresh(net::Descriptor{1, 5, nullptr});  // stale: ignored
  EXPECT_EQ(view.find(1)->timestamp(), 10);
  EXPECT_TRUE(view.find(1)->decoded_profile().contains(7));
}

TEST(View, OldestFindsMinTimestamp) {
  View view(5);
  EXPECT_EQ(view.oldest(), nullptr);
  view.insert_or_refresh(desc(1, 10));
  view.insert_or_refresh(desc(2, 3));
  view.insert_or_refresh(desc(3, 7));
  EXPECT_EQ(view.oldest()->node, 2u);
}

TEST(View, OldestBreaksTimestampTiesByNodeId) {
  // Equal timestamps must resolve to the smallest node id regardless of
  // insertion order — with the old bare-timestamp comparison the winner
  // depended on which entry happened to sit first, which view-eviction
  // machinery (gossip/hygiene.hpp) would have turned into nondeterminism.
  View a(5);
  a.insert_or_refresh(desc(9, 3));
  a.insert_or_refresh(desc(2, 3));
  a.insert_or_refresh(desc(5, 8));
  View b(5);
  b.insert_or_refresh(desc(2, 3));
  b.insert_or_refresh(desc(5, 8));
  b.insert_or_refresh(desc(9, 3));
  EXPECT_EQ(a.oldest()->node, 2u);
  EXPECT_EQ(b.oldest()->node, 2u);
}

TEST(View, RemoveErasesEntry) {
  View view(5);
  view.insert_or_refresh(desc(1, 1));
  view.insert_or_refresh(desc(2, 2));
  view.remove(1);
  EXPECT_FALSE(view.contains(1));
  EXPECT_EQ(view.size(), 1u);
}

TEST(View, RandomSubsetSizeAndDistinctness) {
  Rng rng(3);
  View view(10);
  for (NodeId v = 0; v < 10; ++v) view.insert_or_refresh(desc(v, 0));
  const auto subset = view.random_subset(rng, 4);
  EXPECT_EQ(subset.size(), 4u);
  std::set<NodeId> nodes;
  for (const auto& d : subset) nodes.insert(d.node);
  EXPECT_EQ(nodes.size(), 4u);
  EXPECT_EQ(view.random_subset(rng, 99).size(), 10u);
}

TEST(View, RandomMemberFromEmptyIsNoNode) {
  Rng rng(3);
  View view(4);
  EXPECT_EQ(view.random_member(rng), kNoNode);
  view.insert_or_refresh(desc(7, 0));
  EXPECT_EQ(view.random_member(rng), 7u);
}

TEST(View, AssignRandomRespectsCapacity) {
  Rng rng(5);
  View view(3);
  std::vector<net::Descriptor> candidates;
  for (NodeId v = 0; v < 10; ++v) candidates.push_back(desc(v, 0));
  auto borrowed = refs(candidates);
  view.assign_random(borrowed, rng);
  EXPECT_EQ(view.size(), 3u);
}

TEST(View, AssignClosestKeepsMostSimilar) {
  Rng rng(7);
  View view(2);
  const Profile own = liked({1, 2, 3});
  std::vector<net::Descriptor> candidates = {
      desc(1, 0, {1, 2, 3}),      // perfect match
      desc(2, 0, {1, 2}),         // good match
      desc(3, 0, {50, 51}),       // disjoint
      desc(4, 0, {}),             // empty
  };
  auto borrowed = refs(candidates);
  view.assign_closest(borrowed, own, Metric::kWup, rng);
  ASSERT_EQ(view.size(), 2u);
  std::set<NodeId> kept;
  for (const auto& d : view.entries()) kept.insert(d.node);
  EXPECT_TRUE(kept.count(1));
  EXPECT_TRUE(kept.count(2));
}

TEST(View, AssignClosestRandomizesTies) {
  const Profile own;  // empty: everything ties at similarity 0
  std::vector<net::Descriptor> candidates;
  for (NodeId v = 0; v < 20; ++v) candidates.push_back(desc(v, 0));
  std::set<NodeId> first_picks;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    View view(1);
    auto borrowed = refs(candidates);
    view.assign_closest(borrowed, own, Metric::kWup, rng);
    first_picks.insert(view.entries()[0].node);
  }
  EXPECT_GT(first_picks.size(), 3u);  // not stuck on one candidate
}

TEST(MergeCandidates, DeduplicatesKeepingFreshest) {
  const std::vector<net::Descriptor> base = {desc(1, 5), desc(2, 7)};
  const std::vector<net::Descriptor> incoming = {desc(1, 9), desc(3, 2)};
  std::vector<const net::Descriptor*> merged;
  merge_candidates(base, {incoming}, /*self=*/99, merged);
  EXPECT_EQ(merged.size(), 3u);
  for (const net::Descriptor* d : merged) {
    if (d->node == 1) EXPECT_EQ(d->timestamp(), 9);
  }
}

TEST(MergeCandidates, ExcludesSelf) {
  const std::vector<net::Descriptor> base = {desc(1, 5), desc(2, 7)};
  const std::vector<net::Descriptor> incoming = {desc(2, 9)};
  std::vector<const net::Descriptor*> merged;
  merge_candidates(base, {incoming}, /*self=*/2, merged);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0]->node, 1u);
}

TEST(MergeCandidates, FirstSeenOrderKeepsFreshest) {
  const std::vector<net::Descriptor> base = {desc(1, 5), desc(2, 7)};
  // 1 is fresher here; 2 ties the base entry; 7 is the merging node.
  const std::vector<net::Descriptor> view = {desc(3, 2), desc(1, 9), desc(2, 7),
                                             desc(kNoNode, 4), desc(7, 8)};
  const std::vector<net::Descriptor> sender = {net::Descriptor{4, 3, nullptr}};
  std::vector<const net::Descriptor*> merged;
  merge_candidates(base, {view, sender}, /*self=*/7, merged);
  const std::vector<const net::Descriptor*> expected = {&view[1], &base[1], &view[0],
                                                        &sender[0]};
  EXPECT_EQ(merged, expected);
}

// The first-seen rule as a plain quadratic loop (view.hpp).
std::vector<const net::Descriptor*> first_seen_merge(
    std::initializer_list<std::span<const net::Descriptor>> sources, NodeId self) {
  std::vector<const net::Descriptor*> out;
  for (const auto& source : sources) {
    for (const net::Descriptor& d : source) {
      if (d.node == self || d.node == kNoNode) continue;
      const auto it = std::find_if(out.begin(), out.end(),
                                   [&d](const net::Descriptor* o) { return o->node == d.node; });
      if (it == out.end()) {
        out.push_back(&d);
      } else if (d.timestamp() > (*it)->timestamp()) {
        *it = &d;
      }
    }
  }
  return out;
}

TEST(MergeCandidates, FirstSeenOrderKeepsFreshestAtFirstPosition) {
  Rng rng(77);
  std::uint64_t tag = 0;
  // Node ids from a small range (duplicates within and across sources), the
  // merging node itself, kNoNode, timestamps from a small range (ties), and
  // profile-less bootstrap descriptors. Every descriptor has its own address
  // and snapshot, so keeping the wrong one of two duplicates shows.
  auto source = [&](std::size_t n, NodeId self) {
    std::vector<net::Descriptor> out;
    for (std::size_t i = 0; i < n; ++i) {
      const double pick = rng.uniform();
      const NodeId node = pick < 0.05   ? self
                          : pick < 0.1 ? kNoNode
                                       : static_cast<NodeId>(rng.index(120));
      const auto ts = static_cast<Cycle>(rng.index(6));
      out.push_back(rng.bernoulli(0.15) ? net::Descriptor{node, ts, nullptr}
                                        : desc(node, ts, {++tag}));
    }
    return out;
  };
  const auto check = [&](std::size_t most, int round) {
    const auto self = static_cast<NodeId>(rng.index(120));
    const auto base = source(rng.index(most), self);
    const auto view = source(rng.index(most), self);
    const auto sender = source(1, self);
    const auto rps = source(rng.index(most), self);
    std::vector<const net::Descriptor*> merged;
    merge_candidates(base, {view, sender, rps}, self, merged);
    EXPECT_EQ(merged, first_seen_merge({base, view, sender, rps}, self)) << "round " << round;
  };
  for (int round = 0; round < 400; ++round) {
    // Every 50th round merges sources of up to 300 descriptors.
    check(round % 50 == 0 ? 300 : 40, round);
  }
  // Small merges right after a large one on this thread: no position the
  // large merge left in the table may survive into them.
  check(300, -1);
  for (int round = 0; round < 50; ++round) check(3, -2);
}

}  // namespace
}  // namespace whatsup::gossip
