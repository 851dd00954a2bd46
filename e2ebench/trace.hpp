// Tracing for the benchmark's traced run: decorators that time each
// public layer boundary of the serving stack from the outside, per-thread
// span buffers, and per-thread accumulators the per-layer metrics are
// computed from. Nothing here is compiled into ppcd.
//
// Each boundary is a Layer. Decorators nest strictly on one thread, so a
// layer's self time is its span total minus the next boundary's:
//
//   kSink            TimingSink around whatever IngestServer offers to
//     (EnforcingSink, enforce workload only)
//   kEnforceInner    TimingSink directly under the enforcement layer
//     (PoolSink → DetectorPool, or TieredPoolSink → TieredDetectorPool)
//   kDetectorOuter   TimingDetector around each per-ad detector
//     (ShardedDetector when shards > 1)
//   kDetectorInner   TimingDetector around each shard's GBF/TBF
//
// Where a workload lacks a layer (no enforcement, one shard), the two
// boundaries around it are adjacent and its self time reads the
// decorators' own residue.
#pragma once

#include <time.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/duplicate_detector.hpp"
#include "server/ingest_server.hpp"
#include "workloads.hpp"

namespace e2e {

enum Layer : std::uint8_t {
  kSinkLayer,
  kEnforceInner,
  kDetectorOuter,
  kDetectorInner,
  kLayerCount,
};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One recorded span. `parent` is the enclosing layer on the same thread
/// (kLayerCount at the outermost); `batch` numbers the outermost sink
/// offer the span belongs to.
struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t batch = 0;
  std::uint8_t layer = 0;
  std::uint8_t parent = 0;
};

/// Per-thread trace state. Only its own thread writes it; the counters
/// are relaxed atomics so the main thread may sample them mid-run.
struct ThreadTrace {
  std::array<std::atomic<std::uint64_t>, kLayerCount> ns{};
  std::array<std::atomic<std::uint64_t>, kLayerCount> calls{};
  std::array<std::atomic<std::uint64_t>, kLayerCount> clicks{};
  clockid_t cpu_clock{};
  bool has_cpu_clock = false;
  std::vector<Span> spans;  ///< first kMaxSpans spans, dumped at exit
  std::array<std::uint8_t, 8> open{};
  std::size_t depth = 0;
  std::uint32_t batch = 0;
  bool skipping = false;  ///< inside an outermost offer that is not sampled

  static constexpr std::size_t kMaxSpans = std::size_t{1} << 16;
  /// One outermost sink offer in this many is traced, with every span
  /// nested in it; per-click costs divide by the sampled offers' clicks.
  static constexpr std::uint32_t kSampleEvery = 8;
};

/// Recording switch: off, decorators only forward (the trace-overhead
/// measurement alternates it).
inline std::atomic<bool> g_trace_on{false};

/// The calling thread's trace state, registered on first use.
ThreadTrace& thread_trace();
/// Every registered thread's state (stable pointers; never freed).
std::vector<ThreadTrace*> thread_traces();
/// Writes every recorded span as CSV (thread,layer,parent,batch,start,end).
void dump_spans(const std::string& path);

/// Times `f` as one span of `layer` covering `clicks` clicks.
template <class F>
void timed(Layer layer, std::size_t clicks, F&& f) {
  if (!g_trace_on.load(std::memory_order_relaxed)) {
    f();
    return;
  }
  ThreadTrace& t = thread_trace();
  if (t.skipping) {
    f();
    return;
  }
  if (layer == kSinkLayer && ++t.batch % ThreadTrace::kSampleEvery != 0) {
    t.skipping = true;
    struct Reset {
      bool& flag;
      ~Reset() { flag = false; }
    } reset{t.skipping};
    f();
    return;
  }
  const std::uint8_t parent =
      t.depth == 0 ? std::uint8_t{kLayerCount} : t.open[t.depth - 1];
  if (t.depth < t.open.size()) t.open[t.depth] = layer;
  ++t.depth;
  const std::uint64_t start = now_ns();
  f();
  const std::uint64_t end = now_ns();
  --t.depth;
  const auto bump = [](std::atomic<std::uint64_t>& a, std::uint64_t d) {
    a.store(a.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
  };
  bump(t.ns[layer], end - start);
  bump(t.calls[layer], 1);
  bump(t.clicks[layer], clicks);
  if (t.spans.size() < ThreadTrace::kMaxSpans) {
    t.spans.push_back({start, end, t.batch, layer, parent});
  }
}

/// Copies the outermost sink's offers (columns, verdicts, offer sizes)
/// while active, up to `limit` clicks, for the post-run replays.
class Capture {
 public:
  explicit Capture(std::size_t limit) : limit_(limit) {}

  std::atomic<bool> active{false};

  void record(std::span<const std::uint32_t> ads,
              std::span<const core::ClickId> ids,
              std::span<const std::uint64_t> times,
              std::span<const std::uint32_t> sources,
              std::span<const bool> verdicts);

  /// Read after the server stopped.
  const Columns& cols() const { return cols_; }
  const std::vector<char>& verdicts() const { return verdicts_; }
  const std::vector<std::uint32_t>& offer_sizes() const { return sizes_; }
  std::size_t size() const { return verdicts_.size(); }

 private:
  std::size_t limit_;
  std::mutex mu_;
  Columns cols_;
  std::vector<char> verdicts_;
  std::vector<std::uint32_t> sizes_;
};

/// ClickSink decorator timing every offer as one `layer` span.
class TimingSink final : public server::ClickSink {
 public:
  TimingSink(server::ClickSink& inner, Layer layer, Capture* capture = nullptr)
      : inner_(inner), layer_(layer), capture_(capture) {}

  void offer(std::span<const std::uint32_t> ad_ids,
             std::span<const core::ClickId> ids,
             std::span<const std::uint64_t> times,
             std::span<bool> out) override {
    timed(layer_, ids.size(), [&] { inner_.offer(ad_ids, ids, times, out); });
    if (capture_ != nullptr) capture_->record(ad_ids, ids, times, {}, out);
  }
  void offer_with_sources(std::span<const std::uint32_t> ad_ids,
                          std::span<const core::ClickId> ids,
                          std::span<const std::uint64_t> times,
                          std::span<const std::uint32_t> sources,
                          std::span<bool> out) override {
    timed(layer_, ids.size(), [&] {
      inner_.offer_with_sources(ad_ids, ids, times, sources, out);
    });
    if (capture_ != nullptr) capture_->record(ad_ids, ids, times, sources, out);
  }
  std::string describe() const override { return inner_.describe(); }
  bool concurrent() const override { return inner_.concurrent(); }
  bool supports_snapshots() const noexcept override {
    return inner_.supports_snapshots();
  }
  void save_state(std::ostream& out) const override { inner_.save_state(out); }
  void restore_state(std::istream& in) override { inner_.restore_state(in); }
  server::wire::StatsReport stats_report() const override {
    return inner_.stats_report();
  }

 private:
  server::ClickSink& inner_;
  Layer layer_;
  Capture* capture_;
};

/// DuplicateDetector decorator timing every offer call as one `layer` span.
class TimingDetector final : public core::DuplicateDetector {
 public:
  TimingDetector(std::unique_ptr<core::DuplicateDetector> inner, Layer layer)
      : inner_(std::move(inner)), layer_(layer) {}

  void offer_batch(std::span<const core::ClickId> ids, std::span<bool> out,
                   std::uint64_t time_us) override {
    timed(layer_, ids.size(), [&] { inner_->offer_batch(ids, out, time_us); });
  }
  void offer_batch(std::span<const core::ClickId> ids,
                   std::span<const std::uint64_t> times,
                   std::span<bool> out) override {
    timed(layer_, ids.size(), [&] { inner_->offer_batch(ids, times, out); });
  }
  core::WindowSpec window() const override { return inner_->window(); }
  std::size_t memory_bits() const override { return inner_->memory_bits(); }
  bool zero_false_negatives() const override {
    return inner_->zero_false_negatives();
  }
  std::string name() const override { return inner_->name(); }
  bool concurrent_offers() const noexcept override {
    return inner_->concurrent_offers();
  }
  void reset() override { inner_->reset(); }
  bool supports_snapshots() const noexcept override {
    return inner_->supports_snapshots();
  }
  void save(std::ostream& out) const override { inner_->save(out); }
  void restore(std::istream& in) override { inner_->restore(in); }
  void set_op_counter(core::OpCounter* ops) noexcept override {
    inner_->set_op_counter(ops);
  }

 protected:
  bool do_offer(core::ClickId id, std::uint64_t time_us) override {
    bool dup = false;
    timed(layer_, 1, [&] { dup = inner_->offer(id, time_us); });
    return dup;
  }

 private:
  std::unique_ptr<core::DuplicateDetector> inner_;
  Layer layer_;
};

}  // namespace e2e
