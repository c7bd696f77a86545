#include "metrics/tracker.hpp"

#include <algorithm>
#include <bit>
#include <type_traits>

namespace whatsup::metrics {

namespace {

void bump(std::vector<double>& hist, int hop, double amount = 1.0) {
  const auto index = static_cast<std::size_t>(std::max(hop, 0));
  if (hist.size() <= index) hist.resize(index + 1, 0.0);
  hist[index] += amount;
}

}  // namespace

std::size_t HopCounts::max_hop() const {
  return std::max({forward_like.size(), infect_like.size(), forward_dislike.size(),
                   infect_dislike.size()});
}

void HopCounts::accumulate(const HopCounts& other, double weight) {
  auto add = [weight](std::vector<double>& into, const std::vector<double>& from) {
    if (into.size() < from.size()) into.resize(from.size(), 0.0);
    for (std::size_t h = 0; h < from.size(); ++h) into[h] += weight * from[h];
  };
  add(forward_like, other.forward_like);
  add(infect_like, other.infect_like);
  add(forward_dislike, other.forward_dislike);
  add(infect_dislike, other.infect_dislike);
}

Tracker::Tracker(std::size_t n_users, std::size_t n_items)
    : n_users_(n_users),
      reached_(n_items, HybridSet(n_users)),
      liked_(n_items, HybridSet(n_users)),
      hops_(n_items),
      dislike_hist_(n_items),
      duplicates_(n_items, 0),
      publish_cycle_(n_items, kNoCycle),
      last_touch_(n_items, kNoCycle),
      settled_(n_items, false) {}

std::size_t Tracker::set_memory_bytes() const {
  std::size_t total = 0;
  for (const HybridSet& s : reached_) total += s.memory_bytes();
  for (const HybridSet& s : liked_) total += s.memory_bytes();
  return total;
}

void Tracker::attach(sim::Engine& engine) {
  engine_ = &engine;
  engine.set_observer(this);
  // Compaction rides the engine's cycle hooks. Freezing never changes
  // contents, so a duplicate registration (attach called twice) is merely
  // an idempotent second pass.
  engine.add_cycle_hook(
      [this](sim::Engine&, Cycle now) { compact_settled(now); });
}

void Tracker::touch(ItemIdx item) {
  if (item >= last_touch_.size()) return;
  last_touch_[item] = engine_ != nullptr ? engine_->now() : Cycle{0};
  settled_[item] = false;
}

void Tracker::compact_settled(Cycle now) {
  for (std::size_t item = 0; item < reached_.size(); ++item) {
    if (settled_[item] || last_touch_[item] == kNoCycle ||
        now - last_touch_[item] < kDefaultSettleCycles) {
      continue;
    }
    reached_[item].freeze();
    liked_[item].freeze();
    settled_[item] = true;
  }
}

std::size_t Tracker::frozen_sets() const {
  std::size_t n = 0;
  for (const HybridSet& s : reached_) n += s.is_frozen() ? 1 : 0;
  for (const HybridSet& s : liked_) n += s.is_frozen() ? 1 : 0;
  return n;
}

std::size_t Tracker::resident_bytes() const {
  std::size_t total = sizeof(Tracker) + set_memory_bytes();
  const auto vec_heap = [](const auto& v) {
    return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  for (const HopCounts& hc : hops_) {
    total += sizeof(HopCounts) + vec_heap(hc.forward_like) +
             vec_heap(hc.infect_like) + vec_heap(hc.forward_dislike) +
             vec_heap(hc.infect_dislike);
  }
  total += vec_heap(dislike_hist_) + vec_heap(duplicates_) +
           vec_heap(publish_cycle_) + vec_heap(latency_by_cycle_) +
           vec_heap(last_touch_) + settled_.capacity() / 8;
  for (const auto& [node, series] : tracked_) {
    (void)node;
    total += sizeof(std::uint32_t) + vec_heap(series);
  }
  return total;
}

void Tracker::on_delivery(NodeId user, ItemIdx item, int hops, bool via_dislike,
                          int dislike_count) {
  if (item >= reached_.size() || user >= n_users_) return;
  touch(item);
  reached_[item].set(user);
  ++total_deliveries_;
  if (engine_ != nullptr && publish_cycle_[item] != kNoCycle) {
    const Cycle now = engine_->now();
    const Cycle latency = std::max<Cycle>(now - publish_cycle_[item], 0);
    ++latency_hist_[std::min<std::size_t>(static_cast<std::size_t>(latency),
                                          kMaxLatencyBin)];
    latency_sum_ += static_cast<std::uint64_t>(latency);
    ++latency_count_;
    const auto cycle = static_cast<std::size_t>(std::max<Cycle>(now, 0));
    if (latency_by_cycle_.size() <= cycle) latency_by_cycle_.resize(cycle + 1, {0, 0});
    latency_by_cycle_[cycle].first += static_cast<std::uint64_t>(latency);
    ++latency_by_cycle_[cycle].second;
  }
  if (via_dislike) {
    bump(hops_[item].infect_dislike, hops);
  } else {
    bump(hops_[item].infect_like, hops);
  }
  last_delivery_user_ = user;
  last_delivery_item_ = item;
  last_delivery_dislikes_ = dislike_count;
}

void Tracker::on_opinion(NodeId user, ItemIdx item, bool liked) {
  if (!liked) return;
  // Tracked-node series first: probes may live outside the user range
  // (e.g. the §V-C joining node is an extra engine node).
  if (!tracked_.empty() && engine_ != nullptr) {
    const auto it = tracked_.find(user);
    if (it != tracked_.end()) {
      const auto cycle = static_cast<std::size_t>(std::max<Cycle>(engine_->now(), 0));
      if (it->second.size() <= cycle) it->second.resize(cycle + 1, 0);
      ++it->second[cycle];
    }
  }
  if (item >= liked_.size() || user >= n_users_) return;
  touch(item);
  liked_[item].set(user);
  if (user == last_delivery_user_ && item == last_delivery_item_) {
    const auto bin = static_cast<std::size_t>(
        std::clamp<int>(last_delivery_dislikes_, 0, static_cast<int>(kMaxDislikeBin)));
    ++dislike_hist_[item][bin];
  }
}

void Tracker::on_forward(NodeId user, ItemIdx item, int hops, bool liked,
                         std::size_t n_targets) {
  (void)user;
  if (item >= hops_.size() || n_targets == 0) return;
  if (liked) {
    bump(hops_[item].forward_like, hops);
  } else {
    bump(hops_[item].forward_dislike, hops);
  }
}

std::uint64_t Tracker::digest() const {
  // COMMUTATIVE digest: an unordered sum (mod 2^64, from 0) of one
  // well-mixed hash per FACT — set memberships weighted 1, histogram bins
  // weighted by their (integral) count. Every fact is attributed to the
  // acting user, whose owner fragment is the only worker that records it,
  // so summing the fragments' partial digests reproduces the
  // single-process digest exactly — the invariant the partition-count
  // determinism suite and the distributed-smoke fingerprint diff pin.
  // (Deliberately no basis offset and no size/ordering terms: a basis
  // would be added once per fragment, and worker-local histogram lengths
  // differ even when the nonzero bins agree.)
  const auto mix64 = [](std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  };
  const auto fact = [&mix64](std::uint64_t tag, std::uint64_t item,
                             std::uint64_t key) {
    return mix64(mix64(mix64(tag) ^ item) ^ key);
  };
  std::uint64_t h = 0;
  for (std::size_t item = 0; item < reached_.size(); ++item) {
    reached_[item].for_each_set(
        [&](std::size_t user) { h += fact(1, item, user); });
    liked_[item].for_each_set(
        [&](std::size_t user) { h += fact(2, item, user); });
    const HopCounts& hc = hops_[item];
    std::uint64_t which = 0;
    for (const auto* hist : {&hc.forward_like, &hc.infect_like, &hc.forward_dislike,
                             &hc.infect_dislike}) {
      for (std::size_t bin = 0; bin < hist->size(); ++bin) {
        // Bins count whole events (bump adds 1.0), so the count is an
        // exact integer multiplicity.
        const auto count = static_cast<std::uint64_t>((*hist)[bin]);
        if (count != 0) h += fact(3, item, (which << 32) | bin) * count;
      }
      ++which;
    }
    for (std::size_t bin = 0; bin < dislike_hist_[item].size(); ++bin) {
      const std::uint64_t d = dislike_hist_[item][bin];
      if (d != 0) h += fact(4, item, bin) * d;
    }
  }
  return h;
}

void Tracker::on_duplicate(NodeId user, ItemIdx item) {
  if (item >= duplicates_.size() || user >= n_users_) return;
  touch(item);
  ++duplicates_[item];
  ++total_duplicates_;
}

void Tracker::set_publish_cycle(ItemIdx item, Cycle cycle) {
  if (item < publish_cycle_.size()) publish_cycle_[item] = cycle;
}

void Tracker::track_node(NodeId node) { tracked_[node]; }

const std::vector<std::uint32_t>& Tracker::liked_series(NodeId node) const {
  static const std::vector<std::uint32_t> kEmpty;
  const auto it = tracked_.find(node);
  return it == tracked_.end() ? kEmpty : it->second;
}

}  // namespace whatsup::metrics
