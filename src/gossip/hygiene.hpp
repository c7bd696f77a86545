// Failure-aware view hygiene: descriptor-age eviction plus a suspicion
// counter fed by delivery failures.
//
// Plain RPS/WUP gossip only replaces view entries when fresher descriptors
// happen by, so a crashed peer can linger in views — and keep absorbing
// BEEP forwards — for a long time. With hygiene enabled:
//
//   * Age eviction: entries whose timestamp has fallen more than `max_age`
//     cycles behind are dropped each cycle (a live peer's descriptor is
//     refreshed by gossip well within that horizon). The freshest entry is
//     always kept so a node that gossip briefly abandoned (partition,
//     heavy churn) never empties its view and strands itself.
//   * Suspicion: each reliability-layer delivery failure against a peer
//     (retry exhaustion) bumps its counter; reaching `suspicion_limit`
//     marks the peer evictable. Any successful interaction (ack, incoming
//     gossip) absolves it.
//
// Both knobs default off: hygiene-free runs keep bit-identical view
// trajectories. All state is per-agent and touched only from that agent's
// turn, so the sharded scheduler needs no extra synchronisation.
#pragma once

#include <cstddef>
#include <map>

#include "common/ids.hpp"
#include "gossip/view.hpp"

namespace whatsup::gossip {

struct ViewHygieneConfig {
  // Entries older than `max_age` cycles are evicted (0 = no age eviction).
  Cycle max_age = 0;
  // Delivery failures against a peer before it is evicted (0 = suspicion
  // disabled).
  int suspicion_limit = 0;

  bool enabled() const { return max_age > 0 || suspicion_limit > 0; }
};

class ViewHygiene {
 public:
  explicit ViewHygiene(ViewHygieneConfig config = {});

  const ViewHygieneConfig& config() const { return config_; }
  bool enabled() const { return config_.enabled(); }

  // Reports one delivery failure against `node`; true when the node has
  // crossed the suspicion limit (the caller should remove it from its
  // views and drop pending retransmissions towards it).
  bool report_failure(NodeId node);

  // Evidence of life (ack received, gossip message received): clears the
  // node's suspicion count.
  void absolve(NodeId node);

  // Drops entries of `view` with timestamp < now - max_age, always keeping
  // the freshest entry (ties by smaller node id) so the view never empties.
  // Returns the number evicted. No-op when age eviction is off.
  std::size_t evict_stale(View& view, Cycle now);

  int suspicion(NodeId node) const;
  void forget(NodeId node) { suspicion_.erase(node); }
  void clear() { suspicion_.clear(); }

 private:
  ViewHygieneConfig config_;
  std::map<NodeId, int> suspicion_;
};

}  // namespace whatsup::gossip
