// Opt-in reliability layer for BEEP news forwards.
//
// BEEP is fire-and-forget: under the paper's PlanetLab conditions up to
// ~30% of correctly sent news never reached their target (§V-D). This
// layer adds per-copy acknowledgments with timeout, exponential backoff
// and bounded retries, plus a bounded dedup log so duplicated/reordered/
// retransmitted deliveries stay idempotent:
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
//     retransmission it provokes. The DedupLog remembers recently seen
//     (item, hop) keys to classify exact-copy repeats without unbounded
//     state.
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
  // DedupLog capacity (recently seen (item, hop) keys).
  std::size_t dedup_capacity = 1024;
};

// Bounded FIFO log of recently seen (item, hop) keys. Classifies repeat
// deliveries of the same copy (retransmissions, network duplicates) so
// they can be re-acked without reprocessing, with O(capacity) memory.
//
// Layout: the keys sit in a ring in insertion order; the ring grows to
// `capacity`, then each insertion overwrites the oldest key. An
// open-addressing table of 16-bit ring positions (at least 2 × capacity
// slots, a power of two; linear probing, backward-shift deletion) indexes
// the ring, so a lookup touches one short probe run and the log stops
// allocating once the ring is full.
class DedupLog {
 public:
  // Throws std::invalid_argument when capacity > kMaxCapacity; 0 acts as 1.
  explicit DedupLog(std::size_t capacity = 1024);

  static constexpr std::size_t kMaxCapacity = 65535;

  // True when the key was already present (a duplicate); records it and
  // returns false otherwise. Eviction is FIFO on insertion order.
  bool seen_or_insert(ItemId item, int hop);

  std::size_t size() const { return ring_.size(); }
  std::size_t capacity() const { return capacity_; }
  void clear();

 private:
  static constexpr std::uint16_t kEmpty = 0xffff;  // never a ring position

  static std::uint64_t key(ItemId item, int hop);
  std::size_t home(std::uint64_t k) const;
  // Removes the index entry of ring position `pos` (holding key `k`).
  void unindex(std::uint64_t k, std::uint16_t pos);

  std::size_t capacity_;
  std::vector<std::uint64_t> ring_;   // keys; ring_[oldest_] is next to go once full
  std::size_t oldest_ = 0;
  std::vector<std::uint16_t> slots_;  // ring positions or kEmpty
  int shift_ = 0;                     // 64 - log2(slots)
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
  // profile is a copy-on-write reference).
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
