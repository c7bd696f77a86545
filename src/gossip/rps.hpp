// Random peer sampling (paper §II, following Jelasity et al., ACM TOCS'07).
//
// Maintains a continuously changing random overlay: each period the node
// contacts the view entry with the oldest timestamp, sending its own fresh
// descriptor plus half of its view; initiator and responder both keep a
// uniform random sample of the union of their view and the received one.
#pragma once

#include "gossip/view.hpp"
#include "sim/engine.hpp"

namespace whatsup::gossip {

class Rps {
 public:
  Rps(NodeId self, std::size_t view_size, Cycle period);

  const View& view() const { return view_; }
  View& view() { return view_; }
  Cycle period() const { return period_; }

  // Seeds the view (bootstrap server stand-in).
  void bootstrap(std::vector<net::Descriptor> seed);

  // Active thread: run once per cycle; gossips every `period` cycles.
  // `self` is the node's own fresh descriptor, stamped by its agent with
  // the profile it DISCLOSES — privacy-conscious nodes disclose an
  // obfuscated snapshot (§VII).
  void step(sim::Context& ctx, const net::Descriptor& self);
  // Whether step() at `now` sends (it is due and the view is not empty);
  // an agent stamps `self` only when some step will.
  bool will_send(Cycle now) const;

  // Passive thread.
  void on_request(sim::Context& ctx, const net::ViewPayload& payload,
                  const net::Descriptor& self);
  void on_reply(sim::Context& ctx, const net::ViewPayload& payload);

 private:
  net::ViewPayload make_payload(sim::Context& ctx, const net::Descriptor& self);
  void merge(sim::Context& ctx, const net::ViewPayload& payload);

  NodeId self_;
  View view_;
  Cycle period_;
};

}  // namespace whatsup::gossip
