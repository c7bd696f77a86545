#include "sim/transport.hpp"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/wire.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace whatsup::sim {

namespace {

[[noreturn]] void die(const std::string& what) {
  throw std::runtime_error("SocketTransport: " + what);
}

// Wire-level truth for one fragment process: framed bytes actually moved
// through the socket mesh (includes frame headers, unlike the engine's
// slot-labeled envelope byte counters) and time parked in the poll loop.
struct TransportMetrics {
  obs::MetricId exchanges = obs::counter("transport.socket.exchanges");
  obs::MetricId wire_bytes_out = obs::counter("transport.socket.bytes_out", "bytes");
  obs::MetricId wire_bytes_in = obs::counter("transport.socket.bytes_in", "bytes");
  obs::HistogramId wait =
      obs::histogram("transport.socket.exchange_ns", obs::time_bounds_ns(), "ns");

  static const TransportMetrics& get() {
    static const TransportMetrics m;
    return m;
  }
};

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    die("fcntl(O_NONBLOCK) failed: " + std::string(std::strerror(errno)));
  }
}

}  // namespace

SocketTransport::SocketTransport(std::size_t fragment_id,
                                 std::vector<int> peer_fds)
    : fragment_(fragment_id), fds_(std::move(peer_fds)) {
  if (fragment_ >= fds_.size()) die("fragment_id out of range");
  for (std::size_t f = 0; f < fds_.size(); ++f) {
    if (f == fragment_) continue;
    if (fds_[f] < 0) die("missing peer fd");
    set_nonblocking(fds_[f]);
  }
}

SocketTransport::~SocketTransport() {
  for (int fd : fds_) {
    if (fd >= 0) ::close(fd);
  }
}

std::vector<std::vector<std::uint8_t>> SocketTransport::exchange(
    const std::vector<std::vector<std::uint8_t>>& out) {
  const std::size_t n = fds_.size();
  if (out.size() != n) die("batch count does not match fragment count");
  std::vector<std::vector<std::uint8_t>> in(n);
  WUP_TRACE_SCOPE("socket_exchange");
  const bool obs_on = obs::enabled();
  const std::uint64_t obs_t0 = obs_on ? obs::now_ns() : 0;

  // One frame each way per peer (empty batches still ship an empty frame —
  // the frame is the barrier token). An outgoing frame is its header
  // followed by the batch, sent from where the batch lies; an incoming one
  // is read header first and then straight into its payload vector, never
  // past the frame's end, so a fast peer's next frame waits in the socket.
  constexpr std::size_t kHeader = net::kFrameHeaderBytes;
  struct Peer {
    net::FrameHeader out_header{};
    std::size_t sent = 0;      // frame bytes written, header included
    net::FrameHeader in_header{};
    std::size_t received = 0;  // frame bytes read, header included
    std::size_t length = 0;    // announced payload length, once the header is in
    bool done = false;
  };
  std::vector<Peer> peers(n);
  std::size_t pending_writes = 0;
  std::size_t pending_reads = 0;
  for (std::size_t f = 0; f < n; ++f) {
    if (f == fragment_) continue;
    peers[f].out_header = net::frame_header(out[f]);
    ++pending_writes;
    ++pending_reads;
  }
  const auto frame_bytes = [&](std::size_t f) { return kHeader + out[f].size(); };
  // Writes until the frame is out or the socket is full.
  const auto write_frame = [&](std::size_t f) {
    Peer& peer = peers[f];
    while (peer.sent < frame_bytes(f)) {
      iovec iov[2];
      int count = 0;
      if (peer.sent < kHeader) {
        iov[count++] = {peer.out_header.data() + peer.sent, kHeader - peer.sent};
      }
      const std::size_t body = peer.sent > kHeader ? peer.sent - kHeader : 0;
      if (body < out[f].size()) {
        iov[count++] = {const_cast<std::uint8_t*>(out[f].data()) + body,
                        out[f].size() - body};
      }
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = static_cast<decltype(msg.msg_iovlen)>(count);
      // MSG_NOSIGNAL: a dead peer must surface as EPIPE (-> exception),
      // not a process-wide SIGPIPE.
      const ssize_t written = ::sendmsg(fds_[f], &msg, MSG_NOSIGNAL);
      if (written < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        die("write failed: " + std::string(std::strerror(errno)));
      }
      peer.sent += static_cast<std::size_t>(written);
    }
    --pending_writes;
  };
  // Reads until the frame is in or the socket is drained.
  const auto read_frame = [&](std::size_t f) {
    Peer& peer = peers[f];
    while (!peer.done) {
      std::uint8_t* dst = nullptr;
      std::size_t want = 0;
      if (peer.received < kHeader) {
        dst = peer.in_header.data() + peer.received;
        want = kHeader - peer.received;
      } else {
        dst = in[f].data() + (peer.received - kHeader);
        want = peer.length - (peer.received - kHeader);
      }
      if (want > 0) {
        const ssize_t got = ::read(fds_[f], dst, want);
        if (got < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK) return;
          if (errno == EINTR) continue;
          die("read failed: " + std::string(std::strerror(errno)));
        }
        if (got == 0) die("peer closed the connection mid-run");
        const bool header_was_in = peer.received >= kHeader;
        peer.received += static_cast<std::size_t>(got);
        if (!header_was_in && peer.received == kHeader) {
          if (!net::frame_length(peer.in_header.data(), peer.length)) {
            die("corrupt frame from peer");
          }
          in[f].resize(peer.length);
        }
      }
      if (peer.received >= kHeader && peer.received == kHeader + peer.length) {
        if (!net::frame_intact(peer.in_header.data(), in[f])) {
          die("corrupt frame from peer");
        }
        peer.done = true;
        --pending_reads;
      }
    }
  };

  std::vector<pollfd> pfds;
  pfds.reserve(n);
  while (pending_writes > 0 || pending_reads > 0) {
    pfds.clear();
    for (std::size_t f = 0; f < n; ++f) {
      if (f == fragment_) continue;
      short events = 0;
      if (peers[f].sent < frame_bytes(f)) events |= POLLOUT;
      if (!peers[f].done) events |= POLLIN;
      if (events == 0) continue;
      pfds.push_back(pollfd{fds_[f], events, 0});
    }
    if (::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), -1) < 0) {
      if (errno == EINTR) continue;
      die("poll failed: " + std::string(std::strerror(errno)));
    }
    for (const pollfd& p : pfds) {
      // Recover the fragment index for this fd.
      std::size_t f = 0;
      while (f < n && fds_[f] != p.fd) ++f;
      if ((p.revents & (POLLOUT | POLLERR | POLLHUP)) != 0 &&
          peers[f].sent < frame_bytes(f)) {
        write_frame(f);
      }
      if ((p.revents & (POLLIN | POLLERR | POLLHUP)) != 0 && !peers[f].done) {
        read_frame(f);
      }
    }
  }
  if (obs_on) {
    const TransportMetrics& om = TransportMetrics::get();
    obs::add(om.exchanges);
    std::uint64_t wire_out = 0;
    std::uint64_t wire_in = 0;
    for (std::size_t f = 0; f < n; ++f) {
      if (f == fragment_) continue;
      wire_out += frame_bytes(f);
      wire_in += in[f].size();
    }
    obs::add(om.wire_bytes_out, wire_out);
    obs::add(om.wire_bytes_in, wire_in);
    obs::observe(om.wait, obs::now_ns() - obs_t0);
  }
  return in;
}

std::vector<std::vector<int>> socketpair_mesh(std::size_t n) {
  std::vector<std::vector<int>> mesh(n, std::vector<int>(n, -1));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      int pair[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, pair) != 0) {
        throw std::runtime_error("socketpair failed: " +
                                 std::string(std::strerror(errno)));
      }
      mesh[i][j] = pair[0];
      mesh[j][i] = pair[1];
    }
  }
  return mesh;
}

}  // namespace whatsup::sim
