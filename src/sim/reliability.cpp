#include "sim/reliability.hpp"

#include <algorithm>

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

  static const ReliabilityMetrics& get() {
    static const ReliabilityMetrics m;
    return m;
  }
};

}  // namespace

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
