// BlockingClient: a minimal synchronous client for the ingest wire
// protocol, shared by ppc_loadgen, the server e2e tests, and the loopback
// bench. One socket, blocking I/O, an internal receive buffer decoded with
// the same wire.hpp decoder the server uses — so both ends of every test
// run the production framing code.
#pragma once

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "server/wire.hpp"

namespace ppc::server {

class BlockingClient {
 public:
  BlockingClient() = default;
  ~BlockingClient() { close(); }

  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;

  /// When > 0, shrink SO_RCVBUF before connecting (backpressure tests
  /// make the client a deliberately slow consumer this way).
  void set_rcvbuf(int bytes) noexcept { rcvbuf_ = bytes; }

  /// When > 0, shrink SO_SNDBUF before connecting (set alongside
  /// set_rcvbuf for a symmetric kernel-buffer budget on the client side).
  void set_sndbuf(int bytes) noexcept { sndbuf_ = bytes; }

  void connect(const std::string& host, std::uint16_t port) {
    // A reused client (the replication follower reconnects through link
    // faults) must not carry a previous connection's partial frame into
    // the new byte stream — that would misalign every frame after it.
    rlen_ = 0;
    rpos_ = 0;
    last_consumed_ = 0;
    loop_id_ = 0;
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw_errno("socket");
    if (rcvbuf_ > 0) {
      setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf_, sizeof(rcvbuf_));
    }
    if (sndbuf_ > 0) {
      setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &sndbuf_, sizeof(sndbuf_));
    }
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      throw std::runtime_error("BlockingClient: bad address " + host);
    }
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      throw_errno("connect " + host + ":" + std::to_string(port));
    }
  }

  /// HELLO / HELLO_ACK version handshake; throws on mismatch or close.
  /// Records the accepting loop's id (loop_id()) from the server's
  /// HELLO_ACK.
  void handshake(std::uint32_t version = wire::kProtocolVersion) {
    scratch_.clear();
    wire::append_hello(scratch_, version);
    send_raw(scratch_);
    wire::FrameView frame;
    if (!read_frame(frame) || frame.type != wire::FrameType::kHelloAck) {
      throw std::runtime_error("BlockingClient: no HELLO_ACK");
    }
    std::uint32_t acked = 0;
    std::string err;
    if (!wire::parse_hello_ack(frame.payload, acked, loop_id_, err) ||
        acked != version) {
      throw std::runtime_error("BlockingClient: bad HELLO_ACK: " + err);
    }
  }

  /// The server event loop that accepted this connection (valid after
  /// handshake(); 0 for a single-loop server).
  std::uint32_t loop_id() const noexcept { return loop_id_; }

  void send_raw(std::span<const std::uint8_t> bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw_errno("send");
      }
      sent += static_cast<std::size_t>(n);
    }
  }

  void send_click_batch(std::uint64_t seq,
                        std::span<const wire::ClickRecord> clicks) {
    scratch_.clear();
    wire::append_click_batch(scratch_, seq, clicks);
    send_raw(scratch_);
  }

  /// v2 batch carrying source IPs — only legal after
  /// handshake(wire::kProtocolVersionV2).
  void send_click_batch_v2(std::uint64_t seq,
                           std::span<const wire::ClickRecordV2> clicks) {
    scratch_.clear();
    wire::append_click_batch_v2(scratch_, seq, clicks);
    send_raw(scratch_);
  }

  /// Replication handshake cursor — only legal after
  /// handshake(wire::kProtocolVersionV3) against a replication listener.
  void send_repl_hello(std::uint64_t next_seq) {
    scratch_.clear();
    wire::append_repl_hello(scratch_, next_seq);
    send_raw(scratch_);
  }

  /// Acknowledges the highest replication sequence applied.
  void send_repl_ack(std::uint64_t seq) {
    scratch_.clear();
    wire::append_repl_ack(scratch_, seq);
    send_raw(scratch_);
  }

  void send_ping(std::uint64_t token) {
    scratch_.clear();
    wire::append_ping(scratch_, token);
    send_raw(scratch_);
  }

  void send_drain() {
    scratch_.clear();
    wire::append_drain(scratch_);
    send_raw(scratch_);
  }

  void send_stats() {
    scratch_.clear();
    wire::append_stats(scratch_);
    send_raw(scratch_);
  }

  /// Synchronous STATS round trip: sends the request and blocks until the
  /// STATS_ACK arrives. Only usable when no verdict frames are in flight
  /// on this connection (send a DRAIN first, or query from a dedicated
  /// stats connection — the pattern ppcd --stats-interval uses); an
  /// unexpected frame type throws.
  wire::StatsReport request_stats() {
    send_stats();
    wire::FrameView frame;
    if (!read_frame(frame) || frame.type != wire::FrameType::kStatsAck) {
      throw std::runtime_error("BlockingClient: no STATS_ACK");
    }
    wire::StatsReport report;
    std::string err;
    if (!wire::parse_stats_ack(frame.payload, report, err)) {
      throw std::runtime_error("BlockingClient: bad STATS_ACK: " + err);
    }
    return report;
  }

  /// Blocks until one complete frame is available and returns a view of it
  /// (valid until the next read_frame call). Returns false on orderly EOF
  /// with an empty buffer; throws on malformed frames or socket errors.
  bool read_frame(wire::FrameView& frame) {
    // Drop the previously returned frame: advance a cursor instead of
    // erasing the vector's front (which would memmove the whole tail for
    // every frame on a busy verdict stream).
    rpos_ += last_consumed_;
    last_consumed_ = 0;
    if (rpos_ >= rlen_) {
      rpos_ = 0;
      rlen_ = 0;
    } else if (rpos_ > rlen_ / 2 && rpos_ > 4096) {
      std::memmove(rbuf_.data(), rbuf_.data() + rpos_, rlen_ - rpos_);
      rlen_ -= rpos_;
      rpos_ = 0;
    }
    while (true) {
      std::size_t consumed = 0;
      std::string error;
      const wire::DecodeStatus status = wire::decode_frame(
          {rbuf_.data() + rpos_, rlen_ - rpos_}, frame, consumed, error);
      if (status == wire::DecodeStatus::kFrame) {
        last_consumed_ = consumed;
        return true;
      }
      if (status == wire::DecodeStatus::kError) {
        throw std::runtime_error("BlockingClient: " + error);
      }
      constexpr std::size_t kChunk = 64 * 1024;
      if (rbuf_.size() < rlen_ + kChunk) rbuf_.resize(rlen_ + kChunk);
      const ssize_t n = ::recv(fd_, rbuf_.data() + rlen_, kChunk, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw_errno("recv");
      }
      if (n == 0) {
        if (rlen_ > rpos_) {
          throw std::runtime_error(
              "BlockingClient: connection closed mid-frame");
        }
        return false;
      }
      rlen_ += static_cast<std::size_t>(n);
    }
  }

  void close() noexcept {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  /// Half-closes both directions WITHOUT releasing the fd: a thread
  /// blocked in recv()/send() on this socket returns immediately, while
  /// the descriptor stays owned until close() — so another thread may
  /// call this to interrupt I/O without racing fd reuse.
  void shutdown_now() noexcept {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  }

  int fd() const noexcept { return fd_; }

 private:
  [[noreturn]] static void throw_errno(const std::string& what) {
    throw std::runtime_error("BlockingClient: " + what + ": " +
                             std::strerror(errno));
  }

  int fd_ = -1;
  int rcvbuf_ = 0;
  int sndbuf_ = 0;
  std::uint32_t loop_id_ = 0;
  std::vector<std::uint8_t> rbuf_;  ///< size is capacity; rlen_ is valid
  std::size_t rlen_ = 0;
  std::size_t rpos_ = 0;
  std::size_t last_consumed_ = 0;
  std::vector<std::uint8_t> scratch_;
};

}  // namespace ppc::server
