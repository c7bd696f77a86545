#include "gossip/view.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>

namespace whatsup::gossip {

View::View(std::size_t capacity) : capacity_(capacity) {}

bool View::contains(NodeId node) const { return find(node) != nullptr; }

const net::Descriptor* View::find(NodeId node) const {
  const auto it = std::find_if(entries_.begin(), entries_.end(),
                               [node](const net::Descriptor& d) { return d.node == node; });
  return it == entries_.end() ? nullptr : &*it;
}

const net::Descriptor* View::oldest() const {
  // Ties broken by smaller node id: with bare timestamp comparison the
  // winner depended on insertion order, which eviction (gossip/hygiene.hpp)
  // would have turned into a determinism hazard.
  const auto it = std::min_element(entries_.begin(), entries_.end(),
                                   [](const net::Descriptor& a, const net::Descriptor& b) {
                                     return a.timestamp() != b.timestamp()
                                                ? a.timestamp() < b.timestamp()
                                                : a.node < b.node;
                                   });
  return it == entries_.end() ? nullptr : &*it;
}

void View::insert_or_refresh(net::Descriptor descriptor) {
  const auto it = std::find_if(
      entries_.begin(), entries_.end(),
      [&descriptor](const net::Descriptor& d) { return d.node == descriptor.node; });
  if (it != entries_.end()) {
    if (descriptor.timestamp() >= it->timestamp()) {
      // A refresh may legitimately carry no snapshot (bootstrap entries
      // ship bare addresses). Keep the newer timestamp but never downgrade
      // an entry that already has profile contents to a null snapshot.
      if (!descriptor.has_profile() && it->has_profile()) {
        descriptor = net::Descriptor{descriptor.node, descriptor.timestamp(),
                                     it->profile()};
      }
      *it = std::move(descriptor);
    }
    return;
  }
  entries_.push_back(std::move(descriptor));
}

void View::remove(NodeId node) {
  std::erase_if(entries_, [node](const net::Descriptor& d) { return d.node == node; });
}

namespace {

// Per-thread index buffer for the two samplers below: the result vector is
// their only allocation.
std::vector<std::size_t>& sampled_indices(Rng& rng, std::size_t n, std::size_t k) {
  thread_local std::vector<std::size_t> picks;
  rng.sample_indices(n, k, picks);
  return picks;
}

}  // namespace

std::vector<net::Descriptor> View::random_subset(Rng& rng, std::size_t k) const {
  const std::vector<std::size_t>& picks = sampled_indices(rng, entries_.size(), k);
  std::vector<net::Descriptor> out;
  out.reserve(picks.size());
  for (std::size_t i : picks) out.push_back(entries_[i]);
  return out;
}

std::vector<NodeId> View::random_members(Rng& rng, std::size_t k) const {
  const std::vector<std::size_t>& picks = sampled_indices(rng, entries_.size(), k);
  std::vector<NodeId> out;
  out.reserve(picks.size());
  for (std::size_t i : picks) out.push_back(entries_[i].node);
  return out;
}

NodeId View::random_member(Rng& rng) const {
  if (entries_.empty()) return kNoNode;
  return entries_[rng.index(entries_.size())].node;
}

std::vector<NodeId> View::members() const {
  std::vector<NodeId> ids;
  ids.reserve(entries_.size());
  for (const net::Descriptor& d : entries_) ids.push_back(d.node);
  return ids;
}

namespace {

// Per-thread merge scratch: shard workers merge concurrently, each on its
// own buffers, which keep their capacity across merges.
struct MergeScratch {
  std::vector<const net::Descriptor*> candidates;
  std::vector<std::pair<double, std::size_t>> scored;
  std::vector<const net::Descriptor*> kept;
  std::vector<net::Descriptor> staged;
  std::vector<std::uint32_t> positions;  // merge_candidates' dedupe table
  SimilarityScorer scorer;
};

MergeScratch& scratch() {
  thread_local MergeScratch s;
  return s;
}

}  // namespace

void View::replace_with(std::span<const net::Descriptor* const> kept) {
  // Kept entries of this view move (no snapshot refcount traffic); entries
  // borrowed from elsewhere are copied.
  std::vector<net::Descriptor>& staged = scratch().staged;
  const net::Descriptor* first = entries_.data();
  const net::Descriptor* last = first + entries_.size();
  for (const net::Descriptor* d : kept) {
    if (!std::less<>{}(d, first) && std::less<>{}(d, last)) {
      staged.push_back(std::move(entries_[static_cast<std::size_t>(d - first)]));
    } else {
      staged.push_back(*d);
    }
  }
  entries_.clear();
  entries_.reserve(staged.size());
  std::move(staged.begin(), staged.end(), std::back_inserter(entries_));
  staged.clear();
}

void View::assign_random(std::span<const net::Descriptor*> candidates, Rng& rng) {
  rng.shuffle(candidates);
  replace_with(candidates.first(std::min(candidates.size(), capacity_)));
}

void View::assign_closest(std::span<const net::Descriptor*> candidates,
                          const Profile& own_profile, Metric metric, Rng& rng) {
  // Random shuffle before selection randomizes tie-breaking, which matters
  // at cold start when every similarity is 0.
  rng.shuffle(candidates);
  MergeScratch& s = scratch();
  s.scorer.prepare(metric, own_profile);
  std::vector<std::pair<double, std::size_t>>& scored = s.scored;
  scored.clear();
  // Scoring is bound by the latency of the stamp record -> blob record ->
  // encoded bytes chain; hints for later candidates overlap those misses.
  using Prefetch = DescriptorRef::Prefetch;
  constexpr std::size_t kAhead = 3;
  const std::size_t n = candidates.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 3 * kAhead < n) candidates[i + 3 * kAhead]->prefetch(Prefetch::kStamp);
    if (i + 2 * kAhead < n) candidates[i + 2 * kAhead]->prefetch(Prefetch::kBlob);
    if (i + kAhead < n) candidates[i + kAhead]->prefetch(Prefetch::kBytes);
    scored.emplace_back(s.scorer.score(candidates[i]->snapshot()), i);
  }
  // (descending score, ascending shuffled position) is a strict total order
  // — exactly the ranking the seed's shuffle + stable_sort produced — so
  // top-K selection keeps the identical member sequence while only paying
  // O(n + K log K) instead of O(n log n).
  const auto ranks_before = [](const std::pair<double, std::size_t>& a,
                               const std::pair<double, std::size_t>& b) {
    return a.first > b.first || (a.first == b.first && a.second < b.second);
  };
  if (scored.size() > capacity_) {
    std::nth_element(scored.begin(),
                     scored.begin() + static_cast<std::ptrdiff_t>(capacity_),
                     scored.end(), ranks_before);
    scored.resize(capacity_);
  }
  std::sort(scored.begin(), scored.end(), ranks_before);
  s.kept.clear();
  for (const auto& ranked : scored) s.kept.push_back(candidates[ranked.second]);
  replace_with(s.kept);
}

void View::merge_random(std::initializer_list<std::span<const net::Descriptor>> incoming,
                        NodeId self, Rng& rng) {
  std::vector<const net::Descriptor*>& candidates = scratch().candidates;
  merge_candidates(entries_, incoming, self, candidates);
  assign_random(candidates, rng);
}

void View::merge_closest(std::initializer_list<std::span<const net::Descriptor>> incoming,
                         NodeId self, const Profile& own_profile, Metric metric, Rng& rng) {
  std::vector<const net::Descriptor*>& candidates = scratch().candidates;
  merge_candidates(entries_, incoming, self, candidates);
  assign_closest(candidates, own_profile, metric, rng);
}

void merge_candidates(std::span<const net::Descriptor> base,
                      std::initializer_list<std::span<const net::Descriptor>> incoming,
                      NodeId self, std::vector<const net::Descriptor*>& out) {
  std::size_t total = base.size();
  for (const auto& part : incoming) total += part.size();
  // Open addressing over positions in `out` (+1; 0 = empty), sized by the
  // merge alone and at most half full, so every probe ends at an empty slot.
  std::vector<std::uint32_t>& positions = scratch().positions;
  positions.assign(std::bit_ceil(2 * total), 0);
  const std::size_t mask = positions.size() - 1;
  out.clear();
  auto absorb = [&](const net::Descriptor& d) {
    if (d.node == self || d.node == kNoNode) return;
    std::size_t slot = static_cast<std::size_t>((d.node * 0x9E3779B97F4A7C15ull) >> 32) & mask;
    for (; positions[slot] != 0; slot = (slot + 1) & mask) {
      const net::Descriptor*& kept = out[positions[slot] - 1];
      if (kept->node != d.node) continue;
      if (d.timestamp() > kept->timestamp()) kept = &d;
      return;
    }
    out.push_back(&d);
    positions[slot] = static_cast<std::uint32_t>(out.size());
  };
  for (const net::Descriptor& d : base) absorb(d);
  for (const auto& part : incoming) {
    for (const net::Descriptor& d : part) absorb(d);
  }
}

}  // namespace whatsup::gossip
