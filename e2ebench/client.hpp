// The benchmark's client: one loopback TCP connection per thread, speaking
// the ingest wire protocol through the same wire.hpp encoders and decoder
// ppcd uses, and driving the timed phases of a run.
#pragma once

#include <barrier>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "server/wire.hpp"
#include "workloads.hpp"

namespace e2e {

/// A non-blocking frame reader over a blocking-send socket.
class Conn {
 public:
  Conn() = default;
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void connect(std::uint16_t port);
  /// HELLO / HELLO_ACK; returns the accepting event loop's id.
  std::uint32_t handshake(std::uint32_t version);
  void send(std::span<const std::uint8_t> bytes);
  /// Hands every complete buffered frame to `on_frame`, receiving first if
  /// none is buffered: waits up to `timeout_ns` for bytes (forever when
  /// negative). Returns whether a frame was delivered. The frame's payload
  /// is valid only during the callback.
  bool pump(std::int64_t timeout_ns,
            const std::function<void(const server::wire::FrameView&)>& on_frame);
  void close();

 private:
  bool deliver(const std::function<void(const server::wire::FrameView&)>& f);

  int fd_ = -1;
  std::vector<std::uint8_t> buf_;
  std::size_t len_ = 0;
  std::size_t pos_ = 0;
};

/// One timed segment: closed loop or open loop.
struct Segment {
  bool open = false;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// The timed part of a run: `count` equal segments alternating closed and
/// open loop, so both sample the whole span of the run rather than one
/// half of it (a shared host's speed drifts over seconds). Segments are
/// appended by the barrier's completion step, which runs while every
/// participant waits, and read after it.
struct PhasePlan {
  std::size_t count = 0;
  std::vector<Segment> segments;
};

struct Receipt {
  std::uint64_t t_ns = 0;
  std::uint32_t clicks = 0;
};

struct LatencySample {
  std::uint64_t due_ns = 0;  ///< when the batch was scheduled
  double us = 0.0;           ///< scheduled send → verdict received
};

struct ClientStats {
  /// One bit per click (LSB-first per byte, as on the wire), every click
  /// this connection ever got a verdict for; enforce_replicated prepends
  /// the in-process clicks behind the restored snapshot.
  std::vector<std::uint8_t> verdicts;
  std::uint64_t clicks = 0;      ///< clicks with a wire verdict
  std::uint64_t duplicates = 0;  ///< of which `true`
  std::uint64_t measured_from = 0;  ///< first click index of the closed phase
  std::vector<Receipt> closed;       ///< closed loop, verdicts as received
  std::vector<LatencySample> latency;  ///< open loop
  std::vector<double> lag_us;        ///< open loop, actual − scheduled send
  std::uint64_t batches = 0;         ///< timed batches attempted
  std::uint64_t late = 0;            ///< open-loop batches over the limit
  std::uint64_t encode_ns = 0;
  std::uint64_t encoded_clicks = 0;
  std::uint64_t ack_clicks = 0;      ///< DRAIN_ACK totals
  std::uint64_t ack_duplicates = 0;
  std::string error;  ///< nonempty: the connection failed
};

/// Completion step of the phase barrier (std::barrier needs a noexcept
/// callable); `fn` must not throw.
struct PhaseStep {
  std::function<void()>* fn;
  void operator()() noexcept { (*fn)(); }
};

/// One client connection and its thread's work: warm-up, the timed
/// segments, drain. Every participant (clients plus the coordinator) meets
/// at `sync` after the warm-up and after each segment.
class Client {
 public:
  using Sync = std::barrier<PhaseStep>;

  Client(const Workload& w, Traffic& traffic, std::uint32_t index);

  /// Connects (before the thread starts, so the coordinator can steer
  /// connections onto distinct loops) and returns the accepting loop.
  std::uint32_t connect(std::uint16_t port);
  void run(Sync& sync, const PhasePlan& plan);

  ClientStats& stats() { return stats_; }

 private:
  enum class Phase { kWarmup, kClosed, kOpen };
  struct Pending {
    std::uint64_t seq;
    std::uint32_t count;
    Phase phase;
    std::uint64_t due_ns;
  };

  void prepare(std::uint32_t n);
  /// Sends the prepared batch (preparing `n` clicks first if none is).
  void transmit(Phase phase, std::uint32_t n, std::uint64_t due_ns);
  void on_frame(const server::wire::FrameView& frame);
  void receive(std::int64_t timeout_ns);
  void await_all();
  void closed_loop(Phase phase, std::uint32_t batch,
                   std::uint64_t clicks_limit, std::uint64_t end_ns);
  void open_loop(const Segment& segment);
  void drain();

  const Workload& w_;
  Traffic& traffic_;
  std::uint32_t index_;
  Conn conn_;
  Columns cols_;
  /// The next batch, encoded ahead of its send time. The click stream is
  /// sequential, so a prepared batch is always the next one sent.
  std::vector<std::uint8_t> frame_;
  std::uint32_t frame_count_ = 0;
  bool prepared_ = false;
  std::uint64_t next_seq_ = 0;
  std::deque<Pending> pending_;
  ClientStats stats_;
  bool drain_acked_ = false;
};

}  // namespace e2e
