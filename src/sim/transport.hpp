// Transport seam of the fragment-partitioned engine.
//
// The engine's commit protocol was always a message-manager contract in
// disguise: every commit slot (the staged main-thread flush plus the two
// phase commits per cycle) routes the slot's messages in canonical sender
// order and inserts them into the receivers' mailbox rings. Transport
// promotes the cross-fragment half of that contract to an interface:
//
//  * the node id space is partitioned round-robin across `fragments()`
//    workers (owner(v) = v % fragments — the libgrape-lite inner/outer
//    fragment split: a worker's INNER nodes are the ones it owns and
//    runs; every other node is an OUTER reference it only addresses
//    messages to);
//  * messages between two inner nodes never touch the transport — they
//    stay on the local shard rings exactly as in the single-process
//    engine;
//  * messages to outer nodes are serialized (net/wire.hpp envelopes,
//    network draws already applied sender-side) into one batch per
//    destination fragment and swapped at the commit-slot barrier via
//    exchange().
//
// exchange() is a BARRIER: it returns only once every peer has shipped
// its batch for the same slot, which is what keeps all workers in cycle
// lockstep without any other synchronization. Workers run the full
// control plane (scenario events, crash/recovery draws, calendar)
// redundantly and deterministically, so barriers are the only
// communication the protocol needs.
//
// Backends:
//  * InProcessTransport — the single-fragment identity: one fragment owns
//    every node, so nothing is ever serialized and exchange() returns
//    immediately. An engine built without a transport uses one, so every
//    engine runs the same commit path: all three slots exchange each cycle.
//  * SocketTransport — a full mesh of stream sockets (loopback TCP or —
//    what the launcher and tests use — AF_UNIX socketpairs) carrying
//    length-prefixed, checksummed frames; one frame per peer per slot,
//    empty frames doubling as pure barrier tokens.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace whatsup::sim {

class Transport {
 public:
  virtual ~Transport() = default;

  // Number of node fragments (worker processes); ids are owned round-robin.
  virtual std::size_t fragments() const = 0;
  // This worker's fragment index in [0, fragments()).
  virtual std::size_t fragment_id() const = 0;

  // Ships out[f] (serialized envelope batch bytes) to fragment f for every
  // f != fragment_id() — out[fragment_id()] is ignored — and returns the
  // peers' batches indexed by sending fragment (own slot empty). Blocks
  // until every peer has completed the same exchange; called the same
  // number of times per cycle on every worker (3: staged flush, deliver
  // commit, activate commit).
  virtual std::vector<std::vector<std::uint8_t>> exchange(
      const std::vector<std::vector<std::uint8_t>>& out) = 0;
};

// Single-fragment backend: every message stays on the local mailbox rings.
class InProcessTransport final : public Transport {
 public:
  std::size_t fragments() const override { return 1; }
  std::size_t fragment_id() const override { return 0; }
  std::vector<std::vector<std::uint8_t>> exchange(
      const std::vector<std::vector<std::uint8_t>>& out) override {
    return std::vector<std::vector<std::uint8_t>>(out.size());
  }
};

// Stream-socket mesh backend. `peer_fds[f]` is a connected stream socket
// to fragment f (own slot -1); the constructor takes ownership and the
// destructor closes them. Exchange writes one frame per peer and reads one
// frame per peer, polling so simultaneous full-duplex traffic cannot
// deadlock on kernel buffer limits. Batches are sent in place behind their
// frame header and payloads are read straight into the returned vectors;
// reads stop at each frame's end, so a fast peer's next-slot frame waits in
// the socket for the next exchange. A closed peer or a corrupt frame
// throws std::runtime_error: workers are lockstep replicas, so any
// divergence is fatal by design.
class SocketTransport final : public Transport {
 public:
  SocketTransport(std::size_t fragment_id, std::vector<int> peer_fds);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  std::size_t fragments() const override { return fds_.size(); }
  std::size_t fragment_id() const override { return fragment_; }
  std::vector<std::vector<std::uint8_t>> exchange(
      const std::vector<std::vector<std::uint8_t>>& out) override;

 private:
  std::size_t fragment_ = 0;
  std::vector<int> fds_;  // index = fragment; own slot = -1
};

// Builds a full mesh of AF_UNIX stream socketpairs for `n` fragments:
// mesh[i][j] is fragment i's fd to fragment j (-1 on the diagonal). The
// in-process determinism tests hand row i to thread i; the forking
// launcher hands row w to worker w (closing every other row's fds in the
// child). Throws std::runtime_error when socketpair() fails.
std::vector<std::vector<int>> socketpair_mesh(std::size_t n);

}  // namespace whatsup::sim
