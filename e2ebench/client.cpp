#include "client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "trace.hpp"

namespace e2e {

namespace wire = ppc::server::wire;

namespace {

/// Warm-up sends big batches whatever the workload's timed batch: the
/// detectors are per-click state machines, so only the click stream — not
/// its framing — decides the state the timed phases start from.
constexpr std::uint32_t kWarmupBatch = 4096;
/// A connection that gets no frame for this long has failed.
constexpr std::int64_t kStallNs = 30'000'000'000;
/// Closed loop: batches each connection keeps outstanding.
constexpr std::size_t kInflight = 4;
/// Open loop: a batch slower than this counts as failed.
constexpr double kLatencyLimitUs = 100'000;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

Conn::~Conn() { close(); }

void Conn::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void Conn::connect(std::uint16_t port) {
  close();
  len_ = 0;
  pos_ = 0;
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    throw_errno("connect 127.0.0.1:" + std::to_string(port));
  }
}

std::uint32_t Conn::handshake(std::uint32_t version) {
  std::vector<std::uint8_t> hello;
  wire::append_hello(hello, version);
  send(hello);
  bool acked = false;
  std::uint32_t loop_id = 0;
  while (!acked) {
    const bool got = pump(kStallNs, [&](const wire::FrameView& f) {
      std::uint32_t v = 0;
      std::string err;
      if (f.type != wire::FrameType::kHelloAck ||
          !wire::parse_hello_ack(f.payload, v, loop_id, err) || v != version) {
        throw std::runtime_error("bad HELLO_ACK " + err);
      }
      acked = true;
    });
    if (!got && !acked) throw std::runtime_error("no HELLO_ACK");
  }
  return loop_id;
}

void Conn::send(std::span<const std::uint8_t> bytes) {
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

bool Conn::deliver(
    const std::function<void(const server::wire::FrameView&)>& on_frame) {
  bool any = false;
  while (true) {
    wire::FrameView frame;
    std::size_t consumed = 0;
    std::string err;
    const wire::DecodeStatus st = wire::decode_frame(
        {buf_.data() + pos_, len_ - pos_}, frame, consumed, err);
    if (st == wire::DecodeStatus::kError) {
      throw std::runtime_error("bad frame from server: " + err);
    }
    if (st == wire::DecodeStatus::kNeedMore) break;
    on_frame(frame);
    pos_ += consumed;
    any = true;
  }
  if (pos_ == len_) {
    pos_ = 0;
    len_ = 0;
  } else if (pos_ > 0) {
    std::memmove(buf_.data(), buf_.data() + pos_, len_ - pos_);
    len_ -= pos_;
    pos_ = 0;
  }
  return any;
}

bool Conn::pump(
    std::int64_t timeout_ns,
    const std::function<void(const server::wire::FrameView&)>& on_frame) {
  if (deliver(on_frame)) return true;
  pollfd p{fd_, POLLIN, 0};
  timespec ts{};
  if (timeout_ns >= 0) {
    ts.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000);
    ts.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000);
  }
  const int r = ::ppoll(&p, 1, timeout_ns >= 0 ? &ts : nullptr, nullptr);
  if (r < 0) {
    if (errno == EINTR) return false;
    throw_errno("ppoll");
  }
  if (r == 0) return false;
  constexpr std::size_t kChunk = 256 * 1024;
  if (buf_.size() < len_ + kChunk) buf_.resize(len_ + kChunk);
  const ssize_t n = ::recv(fd_, buf_.data() + len_, buf_.size() - len_,
                           MSG_DONTWAIT);
  if (n == 0) throw std::runtime_error("server closed the connection");
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      return false;
    }
    throw_errno("recv");
  }
  len_ += static_cast<std::size_t>(n);
  return deliver(on_frame);
}

// ---------------------------------------------------------------------------

Client::Client(const Workload& w, Traffic& traffic, std::uint32_t index)
    : w_(w), traffic_(traffic), index_(index) {
  if (w.batch % 8 != 0) {
    throw std::invalid_argument("batch sizes must be multiples of 8");
  }
  cols_.resize(std::max(w.batch, kWarmupBatch));
}

std::uint32_t Client::connect(std::uint16_t port) {
  conn_.connect(port);
  return conn_.handshake(uses_v2(w_) ? wire::kProtocolVersionV2
                                     : wire::kProtocolVersion);
}

void Client::prepare(std::uint32_t n) {
  traffic_.fill(n, cols_, nullptr);
  const std::uint64_t t0 = now_ns();
  frame_.clear();
  if (uses_v2(w_)) {
    wire::append_click_batch_v2_cols(frame_, next_seq_, n, cols_.ads.data(),
                                     cols_.ids.data(), cols_.times.data(),
                                     cols_.sources.data());
  } else {
    wire::append_click_batch_cols(frame_, next_seq_, n, cols_.ads.data(),
                                  cols_.ids.data(), cols_.times.data());
  }
  stats_.encode_ns += now_ns() - t0;
  stats_.encoded_clicks += n;
  frame_count_ = n;
  prepared_ = true;
}

void Client::transmit(Phase phase, std::uint32_t n, std::uint64_t due_ns) {
  if (!prepared_) prepare(n);
  conn_.send(frame_);
  pending_.push_back({next_seq_++, frame_count_, phase, due_ns});
  prepared_ = false;
  if (phase != Phase::kWarmup) ++stats_.batches;
}

void Client::on_frame(const server::wire::FrameView& frame) {
  std::string err;
  if (frame.type == wire::FrameType::kDrainAck) {
    if (!wire::parse_drain_ack(frame.payload, stats_.ack_clicks,
                               stats_.ack_duplicates, err)) {
      throw std::runtime_error(err);
    }
    drain_acked_ = true;
    return;
  }
  if (frame.type != wire::FrameType::kVerdictBatch) {
    throw std::runtime_error(std::string("unexpected frame ") +
                             wire::frame_type_name(frame.type));
  }
  wire::VerdictBatchView v;
  if (!wire::parse_verdict_batch(frame.payload, v, err)) {
    throw std::runtime_error(err);
  }
  if (pending_.empty() || v.seq != pending_.front().seq ||
      v.count != pending_.front().count) {
    throw std::runtime_error("verdict batch " + std::to_string(v.seq) +
                             " out of order or miscounted");
  }
  const Pending p = pending_.front();
  pending_.pop_front();
  const std::size_t bytes = v.count / 8;
  std::uint64_t dups = 0;
  for (std::size_t i = 0; i < bytes; ++i) dups += std::popcount(v.bitmap[i]);
  stats_.verdicts.insert(stats_.verdicts.end(), v.bitmap, v.bitmap + bytes);
  stats_.clicks += v.count;
  stats_.duplicates += dups;
  const std::uint64_t now = now_ns();
  if (p.phase == Phase::kClosed) {
    stats_.closed.push_back({now, v.count});
  } else if (p.phase == Phase::kOpen) {
    const double latency_us = static_cast<double>(now - p.due_ns) / 1e3;
    stats_.latency.push_back({p.due_ns, latency_us});
    if (latency_us > kLatencyLimitUs) ++stats_.late;
  }
}

void Client::receive(std::int64_t timeout_ns) {
  const bool got =
      conn_.pump(timeout_ns < 0 ? kStallNs : timeout_ns,
                 [this](const wire::FrameView& f) { on_frame(f); });
  if (!got && timeout_ns < 0) {
    throw std::runtime_error("no reply from the server for 30 s");
  }
}

void Client::await_all() {
  while (!pending_.empty()) receive(-1);
}

void Client::closed_loop(Phase phase, std::uint32_t batch,
                         std::uint64_t clicks_limit, std::uint64_t end_ns) {
  std::uint64_t sent = 0;
  while (true) {
    if (pending_.size() < kInflight) {
      const std::uint64_t now = now_ns();
      if (sent >= clicks_limit || now >= end_ns) break;
      const auto n =
          static_cast<std::uint32_t>(std::min<std::uint64_t>(batch, clicks_limit - sent));
      transmit(phase, n, now);
      sent += n;
      continue;
    }
    receive(-1);
  }
  await_all();
}

void Client::open_loop(const Segment& segment) {
  // Batches are due on a fixed schedule whatever the server does; each is
  // timed from when it was due, so a stall also delays the ones behind it.
  // The next batch is encoded while waiting, so a due batch is only sent.
  const double per_connection = w_.open_rate / w_.connections;
  const auto interval = static_cast<std::uint64_t>(w_.batch / per_connection * 1e9);
  std::uint64_t due = segment.start_ns + index_ * interval / w_.connections;
  if (!prepared_) prepare(w_.batch);
  while (due < segment.end_ns) {
    const std::uint64_t now = now_ns();
    if (now >= due) {
      transmit(Phase::kOpen, w_.batch, due);
      stats_.lag_us.push_back(static_cast<double>(now - due) / 1e3);
      due += interval;
      prepare(w_.batch);
      continue;
    }
    receive(static_cast<std::int64_t>(due - now));
  }
  await_all();
}

void Client::drain() {
  std::vector<std::uint8_t> frame;
  wire::append_drain(frame);
  conn_.send(frame);
  while (!drain_acked_) receive(-1);
  conn_.close();
}

void Client::run(Sync& sync, const PhasePlan& plan) {
  ::prctl(PR_SET_TIMERSLACK, 1UL);  // open-loop wake-ups to the microsecond
  std::size_t barriers = 0;
  try {
    closed_loop(Phase::kWarmup, kWarmupBatch, w_.warmup_clicks,
                std::numeric_limits<std::uint64_t>::max());
    sync.arrive_and_wait();
    ++barriers;
    stats_.measured_from = stats_.verdicts.size() * 8;
    for (std::size_t k = 0; k < plan.count; ++k) {
      const Segment segment = plan.segments[k];
      if (segment.open) {
        open_loop(segment);
      } else {
        closed_loop(Phase::kClosed, w_.batch,
                    std::numeric_limits<std::uint64_t>::max(), segment.end_ns);
      }
      sync.arrive_and_wait();
      ++barriers;
    }
    drain();
  } catch (const std::exception& e) {
    stats_.error = "connection " + std::to_string(index_) + ": " + e.what();
    if (barriers <= plan.count) sync.arrive_and_drop();
  }
}

}  // namespace e2e
