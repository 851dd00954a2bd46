#include "server/event_loop.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>

namespace ppc::server {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Connection

void Connection::consume(std::size_t n) noexcept {
  rpos_ += n;
  if (rpos_ >= rlen_) {
    rlen_ = 0;
    rpos_ = 0;
  } else if (rpos_ > rlen_ / 2 && rpos_ > 4096) {
    // Compact once the consumed prefix dominates, so the buffer does not
    // creep rightward forever under a long-lived connection.
    std::memmove(rbuf_.data(), rbuf_.data() + rpos_, rlen_ - rpos_);
    rlen_ -= rpos_;
    rpos_ = 0;
  }
}

void Connection::send(std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) return;
  if (wbuf_.size() < wlen_ + bytes.size()) wbuf_.resize(wlen_ + bytes.size());
  std::memcpy(wbuf_.data() + wlen_, bytes.data(), bytes.size());
  wlen_ += bytes.size();
}

// ---------------------------------------------------------------------------
// EventLoop

EventLoop::EventLoop(ConnectionHandler& handler, Options opts)
    : handler_(handler), opts_(opts) {
  if (opts_.low_watermark > opts_.high_watermark) {
    throw std::invalid_argument("EventLoop: low_watermark > high_watermark");
  }
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw_errno("epoll_create1");
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) throw_errno("eventfd");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = 0;  // id 0 = the wake eventfd
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    throw_errno("epoll_ctl(wake_fd)");
  }
}

EventLoop::~EventLoop() {
  for (auto& [id, conn] : conns_) ::close(conn->fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

std::uint16_t EventLoop::listen(const std::string& host, std::uint16_t port,
                                bool reuseport) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (reuseport) {
    // Must be set before bind on EVERY socket sharing the port — the first
    // listener included — or the kernel refuses the second bind.
    if (setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) <
        0) {
      throw_errno("setsockopt(SO_REUSEPORT)");
    }
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("EventLoop::listen: bad address " + host);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    throw_errno("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(listen_fd_, 128) < 0) throw_errno("listen");
  set_nonblocking(listen_fd_);

  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    throw_errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = 1;  // id 1 = the listener
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
    throw_errno("epoll_ctl(listen_fd)");
  }
  next_id_ = 2;  // connection ids start after the two sentinels
  return port_;
}

void EventLoop::stop() noexcept {
  stop_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  // A failed wake write (full counter) still leaves the flag set; the
  // loop's next wakeup observes it. write() is async-signal-safe.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

Connection* EventLoop::find(std::uint64_t id) noexcept {
  const auto it = conns_.find(id);
  return it == conns_.end() || it->second->dead ? nullptr : it->second.get();
}

void EventLoop::run() {
  epoll_event events[64];
  while (!stop_.load(std::memory_order_acquire)) {
    const int n = epoll_wait(epoll_fd_, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("epoll_wait");
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t id = events[i].data.u64;
      if (id == 0) {
        std::uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if (id == 1) {
        accept_ready();
        continue;
      }
      Connection* conn = find(id);
      if (conn == nullptr) continue;  // closed earlier this round
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        // Flush whatever the kernel will still take, then drop the peer.
        flush_writes(*conn);
        mark_dead(*conn);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) conn_readable(*conn);
      if ((events[i].events & EPOLLOUT) != 0 && !conn->dead) {
        flush_writes(*conn);
      }
    }
    handler_.on_round_end();
    // Flush replies the handler queued this round and retune interest for
    // every live connection (EPOLLOUT arming, backpressure pause/resume).
    for (auto& [id, conn] : conns_) {
      if (conn->dead) continue;
      flush_writes(*conn);
      if (conn->closing_ && conn->pending_write_bytes() == 0) {
        mark_dead(*conn);
      }
    }
    reap_dead();
  }
}

void EventLoop::accept_ready() {
  while (true) {
    const int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      throw_errno("accept");
    }
    set_nonblocking(fd);
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (opts_.sndbuf_bytes > 0) {
      setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &opts_.sndbuf_bytes,
                 sizeof(opts_.sndbuf_bytes));
    }
    if (opts_.rcvbuf_bytes > 0) {
      setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &opts_.rcvbuf_bytes,
                 sizeof(opts_.rcvbuf_bytes));
    }
    auto conn = std::make_unique<Connection>();
    conn->id_ = next_id_++;
    conn->fd_ = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id_;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      return;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t id = conn->id_;
    conns_.emplace(id, std::move(conn));
  }
}

void EventLoop::conn_readable(Connection& conn) {
  while (!conn.dead && !conn.closing_) {
    const std::size_t unconsumed = conn.rlen_ - conn.rpos_;
    if (unconsumed >= opts_.max_read_buffer) {
      mark_dead(conn);  // read buffer cap exceeded: handler not consuming
      return;
    }
    // rbuf_.size() is capacity; grow it only when the valid bytes approach
    // it (resize value-initializes just the newly exposed tail, and the
    // high-water mark means that is a one-time cost per connection, not a
    // per-read memset).
    if (conn.rbuf_.size() < conn.rlen_ + opts_.read_chunk) {
      conn.rbuf_.resize(conn.rlen_ + opts_.read_chunk);
    }
    const ssize_t n =
        ::read(conn.fd_, conn.rbuf_.data() + conn.rlen_, opts_.read_chunk);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      mark_dead(conn);
      return;
    }
    if (n == 0) {  // peer closed
      flush_writes(conn);
      mark_dead(conn);
      return;
    }
    conn.rlen_ += static_cast<std::size_t>(n);
    bytes_in_.fetch_add(static_cast<std::uint64_t>(n),
                        std::memory_order_relaxed);
    if (!handler_.on_data(conn)) {
      // Protocol violation: flush any queued reply (a HELLO_ACK may be in
      // flight), then close.
      flush_writes(conn);
      mark_dead(conn);
      return;
    }
    // Backpressure: stop pulling more input while this connection's
    // replies are not draining. update_interest re-arms EPOLLIN later
    // (and counts the pause transition, whichever path causes it).
    if (conn.pending_write_bytes() > opts_.high_watermark) {
      update_interest(conn);
      return;
    }
    if (static_cast<std::size_t>(n) < opts_.read_chunk) return;  // drained
  }
}

void EventLoop::flush_writes(Connection& conn) {
  while (conn.pending_write_bytes() > 0) {
    const ssize_t n = ::write(conn.fd_, conn.wbuf_.data() + conn.wpos_,
                              conn.pending_write_bytes());
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      mark_dead(conn);
      return;
    }
    conn.wpos_ += static_cast<std::size_t>(n);
    bytes_out_.fetch_add(static_cast<std::uint64_t>(n),
                         std::memory_order_relaxed);
  }
  if (conn.pending_write_bytes() == 0) {
    conn.wlen_ = 0;
    conn.wpos_ = 0;
  } else if (conn.wpos_ > conn.wlen_ / 2 && conn.wpos_ > 4096) {
    std::memmove(conn.wbuf_.data(), conn.wbuf_.data() + conn.wpos_,
                 conn.wlen_ - conn.wpos_);
    conn.wlen_ -= conn.wpos_;
    conn.wpos_ = 0;
  }
  update_interest(conn);
}

void EventLoop::update_interest(Connection& conn) {
  if (conn.dead) return;
  const bool want_out = conn.pending_write_bytes() > 0;
  bool want_in;
  if (conn.reads_paused_) {
    want_in = conn.pending_write_bytes() < opts_.low_watermark;
  } else {
    want_in = conn.pending_write_bytes() <= opts_.high_watermark;
  }
  if (conn.closing_) want_in = false;
  const bool paused = !want_in;
  if (want_out == conn.epollout_armed_ && paused == conn.reads_paused_) {
    return;
  }
  // Count every unpaused→paused transition caused by the watermark (the
  // round-end flush path pauses here too, not just conn_readable), but
  // not the EPOLLIN-off that merely accompanies close_after_flush.
  if (paused && !conn.reads_paused_ && !conn.closing_) {
    backpressure_pauses_.fetch_add(1, std::memory_order_relaxed);
  }
  conn.reads_paused_ = paused;
  conn.epollout_armed_ = want_out;
  epoll_event ev{};
  ev.events = (want_in ? EPOLLIN : 0u) | (want_out ? EPOLLOUT : 0u);
  ev.data.u64 = conn.id_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd_, &ev);
}

void EventLoop::mark_dead(Connection& conn) {
  if (conn.dead) return;
  conn.dead = true;
  dead_.push_back(conn.id_);
}

void EventLoop::reap_dead() {
  // mark_dead queues each connection once and only this sweep erases it,
  // so every queued id is still in conns_.
  for (const std::uint64_t id : dead_) {
    const auto it = conns_.find(id);
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->fd_, nullptr);
    ::close(it->second->fd_);
    conns_.erase(it);
    closed_.fetch_add(1, std::memory_order_relaxed);
  }
  dead_.clear();
}

void EventLoop::flush_all_blocking(int timeout_ms) {
  for (auto& [id, conn] : conns_) {
    if (conn->dead) continue;
    // Even a connection with nothing left to write needs the SHUT_WR below:
    // it is what turns into EOF on the client side and tells it the drain
    // is complete.
    pollfd pfd{conn->fd_, POLLOUT, 0};
    while (conn->pending_write_bytes() > 0) {
      const int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready <= 0) break;  // timeout or error: best effort only
      const ssize_t n = ::write(conn->fd_, conn->wbuf_.data() + conn->wpos_,
                                conn->pending_write_bytes());
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      conn->wpos_ += static_cast<std::size_t>(n);
      bytes_out_.fetch_add(static_cast<std::uint64_t>(n),
                           std::memory_order_relaxed);
    }
    ::shutdown(conn->fd_, SHUT_WR);
  }
}

}  // namespace ppc::server
