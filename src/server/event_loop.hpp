// Single-threaded epoll event loop for the ingest daemon.
//
// One thread owns the listener, every connection, and the epoll instance;
// handlers run inline on that thread, so per-connection state needs no
// locking. Multiple EventLoops may serve one port concurrently by passing
// reuseport=true to listen(): each loop gets its own SO_REUSEPORT listener
// and the kernel spreads accepted connections across them — loops share
// nothing, so the one-thread-owns-everything invariant holds per loop.
// The only cross-thread entry point is stop(), which is async-signal-safe
// (one eventfd write) so a SIGTERM handler may call it directly.
//
// Backpressure: each connection carries an elastic write buffer. When a
// peer stops draining its replies and the buffer crosses
// Options::high_watermark, the loop STOPS READING from that connection
// (EPOLLIN off) until the buffer falls back under Options::low_watermark —
// a slow consumer throttles itself instead of growing the server's memory
// without bound. Symmetrically, a connection whose read buffer exceeds
// Options::max_read_buffer without the handler consuming anything is
// closed as a protocol violator.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace ppc::server {

class ConnectionHandler;

/// One accepted socket plus its elastic buffers. Owned by the EventLoop;
/// handlers receive references that are valid only during the callback
/// (hold on to the id, never the pointer).
class Connection {
 public:
  std::uint64_t id() const noexcept { return id_; }
  int fd() const noexcept { return fd_; }

  /// Bytes received but not yet consumed by the handler. decode from
  /// data(), then consume(n) what was parsed.
  std::span<const std::uint8_t> readable() const noexcept {
    return {rbuf_.data() + rpos_, rlen_ - rpos_};
  }
  void consume(std::size_t n) noexcept;

  /// Queues bytes for transmission (copies into the write buffer; the
  /// loop flushes at the end of the round, or at once through
  /// EventLoop::flush_writes). Loop-thread only.
  void send(std::span<const std::uint8_t> bytes);

  /// Flush whatever is queued, then close. No further reads are processed.
  void close_after_flush() noexcept { closing_ = true; }

  std::size_t pending_write_bytes() const noexcept { return wlen_ - wpos_; }
  bool reads_paused() const noexcept { return reads_paused_; }

  /// Per-connection ingest accounting (maintained by the handler).
  std::uint64_t clicks = 0;
  std::uint64_t duplicates = 0;
  bool hello_done = false;
  /// Protocol version negotiated in HELLO; v2 unlocks CLICK_BATCH_V2.
  std::uint32_t wire_version = 0;

 private:
  friend class EventLoop;

  std::uint64_t id_ = 0;
  int fd_ = -1;
  // Both buffers split valid length from vector size: the vector's size is
  // treated as capacity and only ever grows, while rlen_/wlen_ track the
  // bytes that are actually valid. resize() value-initializes, so reusing
  // slack instead of re-resizing per read() keeps a 128 KiB memset off
  // every receive call.
  std::vector<std::uint8_t> rbuf_;
  std::size_t rlen_ = 0;  ///< valid bytes in rbuf_
  std::size_t rpos_ = 0;  ///< consumed prefix of rbuf_
  std::vector<std::uint8_t> wbuf_;
  std::size_t wlen_ = 0;  ///< valid bytes in wbuf_
  std::size_t wpos_ = 0;  ///< transmitted prefix of wbuf_
  bool reads_paused_ = false;
  bool closing_ = false;       ///< close once wbuf drains
  bool dead = false;           ///< queued for removal this dispatch round
  bool epollout_armed_ = false;
};

/// Implemented by the protocol layer (IngestServer). All callbacks run on
/// the loop thread.
class ConnectionHandler {
 public:
  virtual ~ConnectionHandler() = default;
  /// New bytes are available in conn.readable(); consume what parses.
  /// Return false to close the connection (protocol error).
  virtual bool on_data(Connection& conn) = 0;
  /// Runs once per dispatch round after every ready event was handled —
  /// the hook where the server flushes its coalesced click batch.
  virtual void on_round_end() {}
};

class EventLoop {
 public:
  struct Options {
    std::size_t high_watermark = 4u << 20;  ///< pause reads above this
    std::size_t low_watermark = 1u << 20;   ///< resume reads below this
    std::size_t read_chunk = 128u << 10;    ///< bytes per read() attempt
    std::size_t max_read_buffer = 8u << 20; ///< unconsumed cap → close
    /// When > 0, shrink each accepted socket's kernel send buffer
    /// (SO_SNDBUF) so tests can force the userspace backpressure path
    /// without pushing megabytes through loopback.
    int sndbuf_bytes = 0;
    /// When > 0, shrink each accepted socket's kernel receive buffer
    /// (SO_RCVBUF). Paired with a small client-side SO_SNDBUF this bounds
    /// the in-flight input, so a backpressure pause provably stalls the
    /// sender instead of the kernel absorbing the whole stream.
    int rcvbuf_bytes = 0;
  };

  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t closed = 0;
    std::uint64_t backpressure_pauses = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
  };

  // Two constructors instead of `Options opts = {}`: a nested class's
  // default member initializers are not usable in a default argument of
  // the enclosing class (delayed parsing), so the no-options form
  // delegates from a function body instead.
  explicit EventLoop(ConnectionHandler& handler)
      : EventLoop(handler, Options{}) {}
  EventLoop(ConnectionHandler& handler, Options opts);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Binds and listens on host:port (port 0 picks an ephemeral port).
  /// With reuseport=true the socket is bound with SO_REUSEPORT so several
  /// loops can listen on the same port and let the kernel balance accepts
  /// (every loop sharing the port must set it, including the first).
  /// Returns the actually-bound port. @throws std::runtime_error on any
  /// socket failure.
  std::uint16_t listen(const std::string& host, std::uint16_t port,
                       bool reuseport = false);

  /// Runs until stop(). May be called from a dedicated thread.
  void run();

  /// Requests run() to return after the current dispatch round. Safe from
  /// any thread and from signal handlers (a single eventfd write).
  void stop() noexcept;

  /// Loop-thread only: connection by id (nullptr once closed).
  Connection* find(std::uint64_t id) noexcept;

  /// Writes as much of the connection's queued bytes as the socket takes
  /// now, then retunes its interest (EPOLLOUT, backpressure). Loop-thread
  /// only; a write error marks the connection dead.
  void flush_writes(Connection& conn);

  /// After run() returns: best-effort synchronous flush of every
  /// connection's remaining write buffer (sockets switched back to
  /// blocking, capped at `timeout_ms` per connection), then shutdown.
  /// This is what lets a SIGTERM drain deliver the final verdict frames.
  void flush_all_blocking(int timeout_ms);

  Stats stats() const noexcept {
    return {accepted_.load(std::memory_order_relaxed),
            closed_.load(std::memory_order_relaxed),
            backpressure_pauses_.load(std::memory_order_relaxed),
            bytes_in_.load(std::memory_order_relaxed),
            bytes_out_.load(std::memory_order_relaxed)};
  }
  std::size_t connection_count() const noexcept { return conns_.size(); }
  std::uint16_t port() const noexcept { return port_; }

 private:
  void accept_ready();
  void conn_readable(Connection& conn);
  void update_interest(Connection& conn);
  void mark_dead(Connection& conn);
  void reap_dead();

  ConnectionHandler& handler_;
  Options opts_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;    ///< eventfd; stop() writes, the loop drains
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::uint64_t next_id_ = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::vector<std::uint64_t> dead_;  ///< ids to reap this round

  // Stats are written by the loop thread and read from test/monitor
  // threads; relaxed atomics keep that TSan-clean without ordering cost.
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> closed_{0};
  std::atomic<std::uint64_t> backpressure_pauses_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> bytes_out_{0};
};

}  // namespace ppc::server
