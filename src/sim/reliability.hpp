// Opt-in reliability layer for BEEP news forwards.
//
// BEEP is fire-and-forget: under the paper's PlanetLab conditions up to
// ~30% of correctly sent news never reached their target (§V-D). This
// layer adds per-copy acknowledgments with timeout, exponential backoff
// and bounded retries:
//
//   * Sender: after forwarding a news copy to `target`, it registers the
//     (item, target) pair in its RetransmitQueue. An incoming kAck from
//     `target` for the item clears the entry; otherwise the entry comes
//     due after `ack_timeout` cycles and the copy is resent, with the
//     timeout multiplied by `backoff` (capped at `max_timeout`) and at
//     most `max_retries` resends. Retry exhaustion surfaces the target as
//     a suspected-dead peer (fed into gossip view hygiene).
//   * Receiver: every news receipt is acknowledged back to its immediate
//     forwarder — including repeats, so a lost ack is recovered by the
//     retransmission it provokes. The SIR seen-set (whatsup/node.cpp)
//     keeps duplicated, reordered and retransmitted deliveries idempotent:
//     a repeat is acked, counted as a duplicate and dropped.
//
// Determinism: the queue's only randomness is the ±1 cycle retransmission
// jitter, drawn from the node's reserved counter-based reliability
// substream (sim::Context::reliability_rng) — protocol streams are never
// perturbed. All state is per-agent, touched only from that agent's turn.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "net/message.hpp"

namespace whatsup::sim {

struct ReliabilityConfig {
  bool enabled = false;
  Cycle ack_timeout = 3;   // cycles before the first retransmission
  double backoff = 2.0;    // timeout multiplier per retry
  Cycle max_timeout = 16;  // cap on the backed-off timeout
  int max_retries = 3;     // resends per (item, target) before giving up
  // Pending-entry cap per node; the oldest entry is dropped on overflow
  // (bounds memory under pathological loss).
  std::size_t queue_limit = 512;
};

// Per-node retransmission queue for in-flight news copies.
class RetransmitQueue {
 public:
  struct Stats {
    std::size_t tracked = 0;      // copies registered
    std::size_t acked = 0;        // entries cleared by an ack
    std::size_t retransmits = 0;  // copies resent
    std::size_t expired = 0;      // entries dropped after max_retries
    std::size_t overflowed = 0;   // entries evicted by queue_limit
  };

  // A due retransmission surfaced by collect_due.
  struct Due {
    NodeId to = kNoNode;
    net::NewsPayload news;
  };

  explicit RetransmitQueue(ReliabilityConfig config = {});

  const ReliabilityConfig& config() const { return config_; }
  const Stats& stats() const { return stats_; }
  std::size_t pending() const { return entries_.size(); }

  // Registers an in-flight copy of `news` sent to `to` at cycle `now`.
  // The payload snapshot is kept for retransmission (cheap: the item
  // profile is a shared immutable record).
  void track(Cycle now, NodeId to, const net::NewsPayload& news);

  // Clears the pending entry for (item, from); true when one was cleared
  // (false for late acks of already-expired or already-acked entries).
  bool ack(NodeId from, ItemId item);

  // Drops every pending entry addressed to `to` (the peer was evicted as
  // dead; retrying it is wasted traffic). Returns the number dropped.
  std::size_t drop_target(NodeId to);

  // Surfaces the entries due at `now`: each is re-armed with its
  // backed-off timeout (±1 cycle jitter from `rng`, the node's reserved
  // reliability substream) and returned for resending — unless its
  // retries are exhausted, in which case it is dropped and its target
  // appended to `expired_targets` (suspicion feed; may repeat a target).
  std::vector<Due> collect_due(Cycle now, Rng& rng,
                               std::vector<NodeId>* expired_targets = nullptr);

  void clear();

 private:
  struct Entry {
    NodeId to = kNoNode;
    ItemId item = 0;
    net::NewsPayload news;
    Cycle due = 0;        // next retransmission cycle
    Cycle timeout = 0;    // current (backed-off) timeout
    int retries_left = 0;
  };

  ReliabilityConfig config_;
  Stats stats_;
  // Small per-node population (bounded by queue_limit); linear scans keep
  // iteration order — and therefore retransmission order — insertion-
  // canonical, which the determinism suite relies on.
  std::vector<Entry> entries_;
};

}  // namespace whatsup::sim
