#include "gossip/hygiene.hpp"

#include <algorithm>

namespace whatsup::gossip {

ViewHygiene::ViewHygiene(ViewHygieneConfig config) : config_(config) {}

bool ViewHygiene::report_failure(NodeId node) {
  if (config_.suspicion_limit <= 0) return false;
  const int count = ++suspicion_[node];
  if (count < config_.suspicion_limit) return false;
  suspicion_.erase(node);  // evicted; a later re-discovery starts clean
  return true;
}

void ViewHygiene::absolve(NodeId node) {
  // Runs on every received message; most of the time nobody is suspected.
  if (config_.suspicion_limit <= 0 || suspicion_.empty()) return;
  suspicion_.erase(node);
}

int ViewHygiene::suspicion(NodeId node) const {
  const auto it = suspicion_.find(node);
  return it == suspicion_.end() ? 0 : it->second;
}

std::size_t ViewHygiene::evict_stale(View& view, Cycle now) {
  if (config_.max_age <= 0 || view.empty()) return 0;
  const Cycle cutoff = now - config_.max_age;
  // Freshest entry (ties by smaller node id): always survives, so a view
  // that gossip briefly abandoned never empties and strands the node.
  const net::Descriptor* freshest = nullptr;
  for (const net::Descriptor& d : view.entries()) {
    if (freshest == nullptr || d.timestamp() > freshest->timestamp() ||
        (d.timestamp() == freshest->timestamp() && d.node < freshest->node)) {
      freshest = &d;
    }
  }
  const NodeId keep = freshest->node;
  std::size_t evicted = 0;
  // Collect ids first: View::remove invalidates entry iteration.
  std::vector<NodeId> stale;
  for (const net::Descriptor& d : view.entries()) {
    if (d.timestamp() < cutoff && d.node != keep) stale.push_back(d.node);
  }
  for (const NodeId node : stale) {
    view.remove(node);
    ++evicted;
  }
  return evicted;
}

}  // namespace whatsup::gossip
