#include "sim/reliability.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "obs/registry.hpp"

namespace whatsup::sim {

namespace {

// Process-wide reliability counters; the per-instance Stats structs stay
// the per-node source of truth for RunResult aggregation.
struct ReliabilityMetrics {
  obs::MetricId tracked = obs::counter("relia.tracked");
  obs::MetricId acked = obs::counter("relia.acked");
  obs::MetricId retransmits = obs::counter("relia.retransmits");
  obs::MetricId expired = obs::counter("relia.expired");
  obs::MetricId overflowed = obs::counter("relia.overflowed");
  obs::MetricId dedup_repeats = obs::counter("relia.dedup.repeats");

  static const ReliabilityMetrics& get() {
    static const ReliabilityMetrics m;
    return m;
  }
};

}  // namespace

// ---- DedupLog -------------------------------------------------------------

DedupLog::DedupLog(std::size_t capacity) : capacity_(std::max<std::size_t>(capacity, 1)) {
  if (capacity_ > kMaxCapacity) {
    throw std::invalid_argument("sim::DedupLog: capacity " + std::to_string(capacity) +
                                " exceeds " + std::to_string(kMaxCapacity) +
                                " (16-bit ring positions)");
  }
  const std::size_t slots = std::bit_ceil(2 * capacity_);
  slots_.assign(slots, kEmpty);
  shift_ = 64 - std::countr_zero(slots);
}

std::uint64_t DedupLog::key(ItemId item, int hop) {
  // Item ids are 8-byte hashes already; mixing the hop in with a golden-
  // ratio multiple keeps distinct (item, hop) pairs from colliding in
  // practice.
  return item ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(hop)) *
                 0x9e3779b97f4a7c15ULL);
}

std::size_t DedupLog::home(std::uint64_t k) const {
  // Fibonacci hashing: the top bits of a multiplicative mix.
  return static_cast<std::size_t>((k * 0x9e3779b97f4a7c15ULL) >> shift_);
}

bool DedupLog::seen_or_insert(ItemId item, int hop) {
  const std::uint64_t k = key(item, hop);
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(k); slots_[i] != kEmpty; i = (i + 1) & mask) {
    if (ring_[slots_[i]] == k) {
      obs::add(ReliabilityMetrics::get().dedup_repeats);
      return true;
    }
  }
  std::uint16_t pos;
  if (ring_.size() < capacity_) {
    pos = static_cast<std::uint16_t>(ring_.size());
    ring_.push_back(k);
  } else {
    pos = static_cast<std::uint16_t>(oldest_);
    unindex(ring_[pos], pos);
    ring_[pos] = k;
    oldest_ = oldest_ + 1 == capacity_ ? 0 : oldest_ + 1;
  }
  std::size_t i = home(k);
  while (slots_[i] != kEmpty) i = (i + 1) & mask;
  slots_[i] = pos;
  return false;
}

void DedupLog::unindex(std::uint64_t k, std::uint16_t pos) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = home(k);
  while (slots_[hole] != pos) hole = (hole + 1) & mask;
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole unless the hole lies before its home slot (cyclically).
  for (std::size_t j = (hole + 1) & mask; slots_[j] != kEmpty; j = (j + 1) & mask) {
    const std::size_t h = home(ring_[slots_[j]]);
    if (((j - h) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = kEmpty;
}

void DedupLog::clear() {
  ring_.clear();
  oldest_ = 0;
  std::fill(slots_.begin(), slots_.end(), kEmpty);
}

// ---- RetransmitQueue ------------------------------------------------------

RetransmitQueue::RetransmitQueue(ReliabilityConfig config) : config_(config) {
  config_.ack_timeout = std::max<Cycle>(config_.ack_timeout, 1);
  config_.max_timeout = std::max<Cycle>(config_.max_timeout, config_.ack_timeout);
  config_.backoff = std::max(config_.backoff, 1.0);
}

void RetransmitQueue::track(Cycle now, NodeId to, const net::NewsPayload& news) {
  ++stats_.tracked;
  obs::add(ReliabilityMetrics::get().tracked);
  // A re-track of a still-pending (item, target) pair re-arms the entry
  // (cannot happen through BEEP — SIR forwards each item once — but keeps
  // the structure safe for direct use).
  for (Entry& entry : entries_) {
    if (entry.to == to && entry.item == news.id) {
      entry.news = news;
      entry.timeout = config_.ack_timeout;
      entry.due = now + entry.timeout;
      entry.retries_left = config_.max_retries;
      return;
    }
  }
  if (config_.queue_limit > 0 && entries_.size() >= config_.queue_limit) {
    entries_.erase(entries_.begin());  // oldest first
    ++stats_.overflowed;
    obs::add(ReliabilityMetrics::get().overflowed);
  }
  Entry entry;
  entry.to = to;
  entry.item = news.id;
  entry.news = news;
  entry.timeout = config_.ack_timeout;
  entry.due = now + entry.timeout;
  entry.retries_left = config_.max_retries;
  entries_.push_back(std::move(entry));
}

bool RetransmitQueue::ack(NodeId from, ItemId item) {
  const auto it = std::find_if(entries_.begin(), entries_.end(),
                               [&](const Entry& e) { return e.to == from && e.item == item; });
  if (it == entries_.end()) return false;
  entries_.erase(it);
  ++stats_.acked;
  obs::add(ReliabilityMetrics::get().acked);
  return true;
}

std::size_t RetransmitQueue::drop_target(NodeId to) {
  return std::erase_if(entries_, [to](const Entry& e) { return e.to == to; });
}

std::vector<RetransmitQueue::Due> RetransmitQueue::collect_due(
    Cycle now, Rng& rng, std::vector<NodeId>* expired_targets) {
  std::vector<Due> due;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->due > now) {
      ++it;
      continue;
    }
    if (it->retries_left <= 0) {
      ++stats_.expired;
      obs::add(ReliabilityMetrics::get().expired);
      if (expired_targets != nullptr) expired_targets->push_back(it->to);
      it = entries_.erase(it);
      continue;
    }
    --it->retries_left;
    ++stats_.retransmits;
    obs::add(ReliabilityMetrics::get().retransmits);
    due.push_back(Due{it->to, it->news});
    // Exponential backoff with a ±0/+1 cycle desynchronisation jitter from
    // the reserved reliability substream.
    const double backed = static_cast<double>(it->timeout) * config_.backoff;
    it->timeout = std::min<Cycle>(static_cast<Cycle>(backed), config_.max_timeout);
    it->due = now + it->timeout + static_cast<Cycle>(rng.index(2));
    ++it;
  }
  return due;
}

void RetransmitQueue::clear() { entries_.clear(); }

}  // namespace whatsup::sim
