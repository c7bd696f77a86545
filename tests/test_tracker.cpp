#include "metrics/tracker.hpp"

#include <gtest/gtest.h>

namespace whatsup::metrics {
namespace {

TEST(Tracker, RecordsReachedAndLiked) {
  Tracker tracker(10, 5);
  tracker.on_delivery(3, 2, 1, false, 0);
  tracker.on_opinion(3, 2, true);
  tracker.on_delivery(4, 2, 2, true, 1);
  tracker.on_opinion(4, 2, false);
  EXPECT_TRUE(tracker.reached(2).test(3));
  EXPECT_TRUE(tracker.reached(2).test(4));
  EXPECT_TRUE(tracker.liked(2).test(3));
  EXPECT_FALSE(tracker.liked(2).test(4));
  EXPECT_FALSE(tracker.reached(1).test(3));
}

TEST(Tracker, HopHistogramsSplitByForwardType) {
  Tracker tracker(10, 3);
  tracker.on_delivery(1, 0, 2, /*via_dislike=*/false, 0);
  tracker.on_delivery(2, 0, 2, /*via_dislike=*/true, 1);
  tracker.on_forward(1, 0, 2, /*liked=*/true, 5);
  tracker.on_forward(2, 0, 2, /*liked=*/false, 1);
  const HopCounts& hops = tracker.hops(0);
  ASSERT_GE(hops.infect_like.size(), 3u);
  EXPECT_EQ(hops.infect_like[2], 1.0);
  EXPECT_EQ(hops.infect_dislike[2], 1.0);
  EXPECT_EQ(hops.forward_like[2], 1.0);
  EXPECT_EQ(hops.forward_dislike[2], 1.0);
}

TEST(Tracker, ZeroTargetForwardsNotCounted) {
  Tracker tracker(10, 3);
  tracker.on_forward(1, 0, 2, true, 0);
  EXPECT_EQ(tracker.hops(0).forward_like.size(), 0u);
}

TEST(Tracker, DislikeHistogramCountsLikedDeliveriesOnly) {
  Tracker tracker(10, 3);
  tracker.on_delivery(1, 0, 1, true, 2);
  tracker.on_opinion(1, 0, true);   // liked after 2 dislikes -> bin 2
  tracker.on_delivery(2, 0, 1, true, 3);
  tracker.on_opinion(2, 0, false);  // not liked: not counted
  const auto& hist = tracker.dislikes_at_liked(0);
  EXPECT_EQ(hist[2], 1u);
  EXPECT_EQ(hist[3], 0u);
}

TEST(Tracker, DislikeHistogramClipsAtMaxBin) {
  Tracker tracker(4, 1);
  tracker.on_delivery(1, 0, 1, true, 99);
  tracker.on_opinion(1, 0, true);
  EXPECT_EQ(tracker.dislikes_at_liked(0)[Tracker::kMaxDislikeBin], 1u);
}

TEST(Tracker, OutOfRangeEventsIgnored) {
  Tracker tracker(4, 2);
  tracker.on_delivery(99, 0, 1, false, 0);  // user out of range
  tracker.on_delivery(1, 99, 1, false, 0);  // item out of range
  EXPECT_FALSE(tracker.reached(0).any());
  EXPECT_FALSE(tracker.reached(1).any());
}

TEST(Tracker, TrackedNodeSeriesCountsLikedPerCycle) {
  sim::Engine engine({1, {}, {}});
  Tracker tracker(4, 2);
  tracker.attach(engine);
  tracker.track_node(2);
  tracker.on_opinion(2, 0, true);   // cycle 0
  tracker.on_opinion(2, 1, true);   // cycle 0
  engine.run_cycle();
  tracker.on_opinion(2, 0, false);  // dislikes not counted
  tracker.on_opinion(2, 1, true);   // cycle 1
  const auto& series = tracker.liked_series(2);
  ASSERT_GE(series.size(), 2u);
  EXPECT_EQ(series[0], 2u);
  EXPECT_EQ(series[1], 1u);
}

TEST(Tracker, TrackedSeriesWorksBeyondUserRange) {
  // The Fig. 7 joiner lives outside the workload's user id range.
  sim::Engine engine({1, {}, {}});
  Tracker tracker(4, 2);
  tracker.attach(engine);
  tracker.track_node(100);
  tracker.on_opinion(100, 0, true);
  EXPECT_EQ(tracker.liked_series(100)[0], 1u);
}

TEST(Tracker, UntrackedNodeHasEmptySeries) {
  Tracker tracker(4, 2);
  EXPECT_TRUE(tracker.liked_series(3).empty());
}

TEST(Tracker, ReachSetsPromoteSparseToDenseWithIdenticalCounts) {
  // The per-item sets are hybrid sparse→dense (common/hybrid_set.hpp).
  // Drive one item's deliveries across the promotion threshold and check
  // that nothing observable changes: counts, membership, digest inputs.
  const std::size_t n_users = 4096;  // promotion threshold: 4096/32 = 128
  Tracker tracker(n_users, 2);
  DynBitset mirror(n_users);
  ASSERT_EQ(tracker.reached(0).promote_threshold(), 128u);
  for (std::size_t i = 0; i < 400; ++i) {
    const auto user = static_cast<NodeId>((i * 37) % n_users);
    tracker.on_delivery(user, 0, 1, false, 0);
    mirror.set(user);
    ASSERT_EQ(tracker.reached(0).count(), mirror.count()) << "delivery " << i;
  }
  EXPECT_TRUE(tracker.reached(0).is_dense());
  EXPECT_FALSE(tracker.reached(1).is_dense());  // untouched item stays sparse
  EXPECT_EQ(tracker.reached(0).to_bitset(), mirror);
  // Membership iteration order feeding digest() is ascending either way:
  // a fresh tracker replaying the same users sparse-only (below the
  // threshold) must agree with the dense set on the common prefix.
  Tracker sparse_replay(n_users, 2);
  DynBitset sparse_mirror(n_users);
  std::size_t fed = 0;
  for (std::size_t i = 0; i < 400 && fed < 100; ++i) {
    const auto user = static_cast<NodeId>((i * 37) % n_users);
    if (sparse_mirror.test(user)) continue;
    sparse_replay.on_delivery(user, 0, 1, false, 0);
    sparse_mirror.set(user);
    ++fed;
  }
  EXPECT_FALSE(sparse_replay.reached(0).is_dense());
  EXPECT_EQ(sparse_replay.reached(0).to_bitset().intersect_count(mirror), fed);
  EXPECT_GT(tracker.set_memory_bytes(), 0u);
}

TEST(Tracker, DigestIndependentOfRepresentation) {
  // Two trackers fed the same (user, item) deliveries in different orders
  // hold equal sets — one may promote earlier than the other mid-stream —
  // and must end at the same digest.
  const std::size_t n_users = 2048;  // threshold 64
  Tracker a(n_users, 1), b(n_users, 1);
  std::vector<NodeId> users;
  for (std::size_t i = 0; i < 90; ++i) users.push_back(static_cast<NodeId>(i * 11));
  for (const NodeId u : users) {
    a.on_delivery(u, 0, 1, false, 0);
    a.on_opinion(u, 0, true);
  }
  for (auto it = users.rbegin(); it != users.rend(); ++it) {
    b.on_delivery(*it, 0, 1, false, 0);
    b.on_opinion(*it, 0, true);
  }
  EXPECT_TRUE(a.reached(0).is_dense());
  EXPECT_TRUE(b.reached(0).is_dense());
  EXPECT_EQ(a.reached(0), b.reached(0));
  EXPECT_EQ(a.liked(0), b.liked(0));
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(HopCounts, AccumulateResizesAndWeights) {
  HopCounts a, b;
  b.forward_like = {1.0, 2.0, 3.0};
  b.infect_dislike = {4.0};
  a.accumulate(b, 0.5);
  ASSERT_EQ(a.forward_like.size(), 3u);
  EXPECT_EQ(a.forward_like[1], 1.0);
  EXPECT_EQ(a.infect_dislike[0], 2.0);
  EXPECT_EQ(a.max_hop(), 3u);
}

TEST(Tracker, CompactionFreezesOnlyAfterSettleWindow) {
  Tracker tracker(100000, 2);
  // Spill both items' sets past the inline buffer so freezing can shrink.
  for (NodeId u = 0; u < 40; ++u) {
    tracker.on_delivery(u * 50, 0, 1, false, 0);  // touched at cycle 0
    tracker.on_delivery(u * 50, 1, 1, false, 0);
  }
  const std::uint64_t digest_before = tracker.digest();
  tracker.compact_settled(Tracker::kDefaultSettleCycles - 1);
  EXPECT_EQ(tracker.frozen_sets(), 0u) << "inside the settle window";
  tracker.compact_settled(Tracker::kDefaultSettleCycles);
  EXPECT_GT(tracker.frozen_sets(), 0u) << "window elapsed for both items";
  EXPECT_EQ(tracker.digest(), digest_before) << "freezing is storage-only";
  EXPECT_EQ(tracker.reached(0).count(), 40u);
}

TEST(Tracker, LateDeliveryThawsAndStaysCorrect) {
  Tracker tracker(100000, 1);
  for (NodeId u = 0; u < 40; ++u) tracker.on_delivery(u * 50, 0, 1, false, 0);
  tracker.compact_settled(1000);
  ASSERT_GT(tracker.frozen_sets(), 0u);
  const std::uint64_t frozen_digest = tracker.digest();
  // A straggler copy arrives after the window closed: the set must thaw,
  // record it, and become freezable again after a fresh window.
  tracker.on_delivery(12345, 0, 6, false, 0);
  EXPECT_TRUE(tracker.reached(0).test(12345));
  EXPECT_EQ(tracker.reached(0).count(), 41u);
  EXPECT_NE(tracker.digest(), frozen_digest) << "new member must change state";
  tracker.compact_settled(1000 + 2 * Tracker::kDefaultSettleCycles);
  EXPECT_GT(tracker.frozen_sets(), 0u);
  EXPECT_TRUE(tracker.reached(0).test(12345));
}

TEST(Tracker, DigestIdenticalWithCompactionOnAndOff) {
  // Same event stream, compaction interleaved vs never: every intermediate
  // digest must agree. This is the storage-only contract the determinism
  // suite relies on.
  const auto feed = [](Tracker& t, bool compact) {
    std::vector<std::uint64_t> digests;
    for (int burst = 0; burst < 4; ++burst) {
      for (NodeId u = 0; u < 30; ++u) {
        const NodeId user = u * 97 + burst;
        t.on_delivery(user, burst % 2, 1 + burst, burst % 2 == 1, 0);
        t.on_opinion(user, burst % 2, u % 3 == 0);
        if (u % 7 == 0) t.on_duplicate(user, burst % 2);
      }
      if (compact) t.compact_settled(1000 * (burst + 1));
      digests.push_back(t.digest());
    }
    return digests;
  };
  Tracker with(100000, 2), without(100000, 2);
  EXPECT_EQ(feed(with, true), feed(without, false));
  EXPECT_GT(with.frozen_sets(), 0u) << "the compacted run really froze sets";
  EXPECT_EQ(without.frozen_sets(), 0u);
}

TEST(Tracker, ResidentBytesPinsTheAccounting) {
  Tracker tracker(100000, 3);
  const std::size_t empty_bytes = tracker.resident_bytes();
  EXPECT_GE(empty_bytes, sizeof(Tracker));
  // Spill item 0's reached set and hop histograms.
  for (NodeId u = 0; u < 64; ++u) tracker.on_delivery(u * 100, 0, 3, false, 0);
  const std::size_t grown = tracker.resident_bytes();
  EXPECT_GT(grown, empty_bytes);
  // The growth must cover at least the set spill reported by the sets
  // themselves plus the hop histogram heap.
  EXPECT_GE(grown, sizeof(Tracker) + tracker.set_memory_bytes());
  // Freezing shrinks the resident accounting (that's its whole point), and
  // resident_bytes must follow the representation change.
  tracker.compact_settled(1000);
  ASSERT_GT(tracker.frozen_sets(), 0u);
  EXPECT_LT(tracker.resident_bytes(), grown);
  // Tracked-node series are charged too.
  tracker.track_node(5);
  Tracker probe(10, 1);
  const std::size_t before_series = probe.resident_bytes();
  probe.track_node(7);
  EXPECT_GE(probe.resident_bytes(), before_series);
}

TEST(Tracker, AttachRegistersAsEngineObserver) {
  sim::Engine engine({1, {}, {}});
  Tracker tracker(4, 2);
  tracker.attach(engine);
  EXPECT_EQ(engine.observer(), &tracker);
}

}  // namespace
}  // namespace whatsup::metrics
