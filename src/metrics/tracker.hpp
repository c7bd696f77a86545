// Dissemination tracker: the measurement side of every experiment.
//
// Implements sim::DisseminationObserver and records, per item:
//   * the set of users reached and the set who liked it,
//   * hop histograms split by forward type (like vs dislike) for both
//     forwarding actions and infections (Fig. 6),
//   * the dislike counter carried by the copy that reached each liker
//     (Table IV),
// plus per-cycle liked-delivery series for explicitly tracked nodes
// (Fig. 7c).
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hybrid_set.hpp"
#include "sim/engine.hpp"

namespace whatsup::metrics {

// Aggregated hop histograms (index = hop distance from the source).
struct HopCounts {
  std::vector<double> forward_like;
  std::vector<double> infect_like;
  std::vector<double> forward_dislike;
  std::vector<double> infect_dislike;

  std::size_t max_hop() const;
  void accumulate(const HopCounts& other, double weight = 1.0);
};

class Tracker : public sim::DisseminationObserver {
 public:
  Tracker(std::size_t n_users, std::size_t n_items);

  // Registers as the engine's observer and binds the clock used by the
  // per-cycle series. Also registers the compaction cycle hook (see
  // compact_settled); the tracker must outlive the engine's run.
  void attach(sim::Engine& engine);

  // Compaction: once an item has gone kDefaultSettleCycles without a
  // delivery/opinion/duplicate, its reached and liked sets are frozen into
  // sorted varint delta blocks (HybridSet::freeze — adopted only when
  // strictly smaller). Purely a storage change: digests are computed from
  // the same ascending member iteration, and a late delivery transparently
  // thaws the set, so fixed-seed trajectories are bit-identical whether or
  // not a pass ever runs.
  static constexpr Cycle kDefaultSettleCycles = 16;
  // Runs one compaction pass at cycle `now` (the attach hook calls this
  // every cycle; exposed for tests).
  void compact_settled(Cycle now);
  // Number of currently frozen reached/liked sets (observability).
  std::size_t frozen_sets() const;

  // Full resident footprint of the tracker's measurement state: the
  // reached/liked sets in their current representation plus every
  // histogram, series, and bookkeeping vector. The scale-smoke memory
  // counters report this (bench/macro_sim.cpp).
  std::size_t resident_bytes() const;

  // sim::DisseminationObserver
  void on_delivery(NodeId user, ItemIdx item, int hops, bool via_dislike,
                   int dislike_count) override;
  void on_opinion(NodeId user, ItemIdx item, bool liked) override;
  void on_forward(NodeId user, ItemIdx item, int hops, bool liked,
                  std::size_t n_targets) override;
  void on_duplicate(NodeId user, ItemIdx item) override;

  std::size_t num_items() const { return reached_.size(); }
  std::size_t num_users() const { return n_users_; }
  // Per-item membership sets are hybrid sparse→dense (common/hybrid_set.hpp):
  // sorted index arrays while small, bitsets once dense. This caps the
  // tracker's resident footprint at O(total deliveries) instead of
  // O(items × n), which is what dominates a 100k-node run.
  const HybridSet& reached(ItemIdx item) const { return reached_[item]; }
  const HybridSet& liked(ItemIdx item) const { return liked_[item]; }
  const std::vector<HybridSet>& reached_sets() const { return reached_; }

  // Resident bytes of the reached/liked sets (observability for the
  // memory-lean metrics work; see bench/macro_sim.cpp).
  std::size_t set_memory_bytes() const;

  // Per-item hop histograms and the dislike-counter histogram for copies
  // that reached likers (index clipped to kMaxDislikeBin).
  static constexpr std::size_t kMaxDislikeBin = 15;
  const HopCounts& hops(ItemIdx item) const { return hops_[item]; }
  const std::array<std::uint32_t, kMaxDislikeBin + 1>& dislikes_at_liked(
      ItemIdx item) const {
    return dislike_hist_[item];
  }

  // Fig. 7c probes: per-cycle count of liked deliveries at a node.
  void track_node(NodeId node);
  const std::vector<std::uint32_t>& liked_series(NodeId node) const;

  // ---- Reliability metrics (robustness experiments) ----
  //
  // Redundancy: repeat receipts of an already-seen item (multi-path BEEP
  // copies, network duplicates, retransmissions) reported by agents via
  // on_duplicate. The redundancy ratio is duplicates per unique delivery —
  // the bandwidth price of the dissemination's natural (and, with the
  // reliability layer, deliberate) re-sending.
  std::uint32_t duplicates(ItemIdx item) const {
    return item < duplicates_.size() ? duplicates_[item] : 0;
  }
  std::uint64_t total_duplicates() const { return total_duplicates_; }
  std::uint64_t total_deliveries() const { return total_deliveries_; }
  double redundancy_ratio() const {
    return total_deliveries_ == 0
               ? 0.0
               : static_cast<double>(total_duplicates_) /
                     static_cast<double>(total_deliveries_);
  }

  // Delivery latency: cycles from an item's publication to each unique
  // delivery. The runner declares publication cycles (from its calendar);
  // deliveries of undeclared items are not latency-scored.
  void set_publish_cycle(ItemIdx item, Cycle cycle);
  // Histogram clipped at kMaxLatencyBin (last bin = "that or slower").
  static constexpr std::size_t kMaxLatencyBin = 63;
  const std::array<std::uint64_t, kMaxLatencyBin + 1>& latency_histogram() const {
    return latency_hist_;
  }
  double mean_latency() const {
    return latency_count_ == 0 ? 0.0
                               : static_cast<double>(latency_sum_) /
                                     static_cast<double>(latency_count_);
  }
  std::uint64_t latency_count() const { return latency_count_; }
  // Per-delivery-cycle latency accumulators (sum, count), indexed by the
  // cycle the delivery happened in — lets the runner reduce per-window
  // mean latency aligned with its recall windows.
  const std::vector<std::pair<std::uint64_t, std::uint32_t>>& latency_by_cycle() const {
    return latency_by_cycle_;
  }

  // Fingerprint of the full measurement state (reached/liked sets, hop
  // histograms, dislike histograms): equal states yield equal digests.
  // Sampled once per cycle, a digest series pins the whole trajectory —
  // any divergence in what was measured, or when, changes some cycle's
  // state — which is the determinism contract the sharded scheduler is
  // tested against (tests/test_determinism.cpp). The digest is a
  // COMMUTATIVE sum of per-fact hashes, so in fragment mode the workers'
  // partial digests (each tracker sees only its own nodes' events) sum
  // mod 2^64 to the single-process digest — the property the
  // partition-count invariance suite and the distributed-smoke CI
  // fingerprint diff rely on.
  std::uint64_t digest() const;

 private:
  std::size_t n_users_;
  std::vector<HybridSet> reached_;
  std::vector<HybridSet> liked_;
  std::vector<HopCounts> hops_;
  std::vector<std::array<std::uint32_t, kMaxDislikeBin + 1>> dislike_hist_;

  // Reliability metrics. Deliberately NOT folded into digest(): the digest
  // pins the measurement trajectory the determinism suite compares, and
  // its value semantics predate the reliability layer.
  std::vector<std::uint32_t> duplicates_;
  std::uint64_t total_duplicates_ = 0;
  std::uint64_t total_deliveries_ = 0;
  std::vector<Cycle> publish_cycle_;
  std::array<std::uint64_t, kMaxLatencyBin + 1> latency_hist_{};
  std::uint64_t latency_sum_ = 0;
  std::uint64_t latency_count_ = 0;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> latency_by_cycle_;

  // Deliveries and opinions arrive as consecutive callbacks for the same
  // (user, item); remember the delivery context to label the opinion.
  NodeId last_delivery_user_ = kNoNode;
  ItemIdx last_delivery_item_ = kNoItem;
  int last_delivery_dislikes_ = 0;

  sim::Engine* engine_ = nullptr;
  std::unordered_map<NodeId, std::vector<std::uint32_t>> tracked_;

  // Compaction state: last cycle each item was touched (delivery, opinion
  // or duplicate) and whether a freeze has already been attempted since.
  // Touches are recorded on the main thread in canonical commit order and
  // the pass runs in a cycle hook, so freezing is a deterministic function
  // of the trajectory.
  std::vector<Cycle> last_touch_;
  std::vector<bool> settled_;
  void touch(ItemIdx item);
};

}  // namespace whatsup::metrics
