// The traced run: the workload's server stack hosted in process (same
// server_config.hpp builders as ppcd) with timing decorators at each layer
// boundary, fed by the same clients, followed by replays of the captured
// batches through the public wire, hashing, replication and snapshot
// functions. Prints the per-layer metrics.
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/detector_factory.hpp"
#include "hashing/index_family.hpp"
#include "server/ingest_server.hpp"
#include "server/replication.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace e2e {

namespace {

namespace wire = ppc::server::wire;

/// Counters sampled at trace-window boundaries; windows add up.
struct Sample {
  std::uint64_t t_ns = 0;
  std::uint64_t clicks = 0;
  std::uint64_t flushes = 0;
  std::uint64_t cpu_ns = 0;  ///< summed over the event-loop threads
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t pauses = 0;
  std::array<std::uint64_t, kLayerCount> ns{};
  std::array<std::uint64_t, kLayerCount> calls{};
  std::array<std::uint64_t, kLayerCount> layer_clicks{};

  Sample& add_delta(const Sample& end, const Sample& begin) {
    t_ns += end.t_ns - begin.t_ns;
    clicks += end.clicks - begin.clicks;
    flushes += end.flushes - begin.flushes;
    cpu_ns += end.cpu_ns - begin.cpu_ns;
    bytes_in += end.bytes_in - begin.bytes_in;
    bytes_out += end.bytes_out - begin.bytes_out;
    pauses += end.pauses - begin.pauses;
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      ns[l] += end.ns[l] - begin.ns[l];
      calls[l] += end.calls[l] - begin.calls[l];
      layer_clicks[l] += end.layer_clicks[l] - begin.layer_clicks[l];
    }
    return *this;
  }
};

std::uint64_t thread_cpu_ns(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Span totals of every registered thread.
Sample layer_totals() {
  Sample s;
  s.t_ns = now_ns();
  for (const ThreadTrace* t : thread_traces()) {
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      s.ns[l] += t->ns[l].load(std::memory_order_relaxed);
      s.calls[l] += t->calls[l].load(std::memory_order_relaxed);
      s.layer_clicks[l] += t->clicks[l].load(std::memory_order_relaxed);
    }
  }
  return s;
}

Sample take(const server::IngestServer& srv,
            const std::vector<ThreadTrace*>& loops) {
  Sample s = layer_totals();
  const server::IngestServer::Stats st = srv.stats();
  s.clicks = st.clicks;
  s.flushes = st.flushes;
  const server::EventLoop::Stats ls = srv.loop_stats();
  s.bytes_in = ls.bytes_in;
  s.bytes_out = ls.bytes_out;
  s.pauses = ls.backpressure_pauses;
  for (const ThreadTrace* t : loops) {
    if (t->has_cpu_clock) s.cpu_ns += thread_cpu_ns(t->cpu_clock);
  }
  return s;
}

/// Median wall time of `reps` runs of `f`, in nanoseconds.
template <class F>
double median_ns(int reps, F&& f) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t t0 = now_ns();
    f();
    t.push_back(static_cast<double>(now_ns() - t0));
  }
  return summarize(t).median;
}

/// Replay results are stored here so the optimizer keeps the work.
volatile std::uint64_t g_replay_sink = 0;

/// Stops and joins a thread when the scope ends, on error paths too.
struct JoinOnExit {
  std::thread& thread;
  std::function<void()> stop;
  ~JoinOnExit() {
    if (thread.joinable()) {
      stop();
      thread.join();
    }
  }
};

/// Feeds every frame in `frames` to the applier; throws on a refusal.
void apply_frames(server::ReplicationApplier& applier,
                  const std::vector<std::uint8_t>& frames) {
  std::size_t pos = 0;
  while (pos < frames.size()) {
    wire::FrameView f;
    std::size_t used = 0;
    std::string err;
    if (wire::decode_frame({frames.data() + pos, frames.size() - pos}, f, used,
                           err) != wire::DecodeStatus::kFrame ||
        !applier.on_frame(f.type, f.payload, err)) {
      throw std::runtime_error("replication replay refused: " + err);
    }
    pos += used;
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

/// Post-run replays of the captured sink batches through each layer's
/// public entry points; adds their metrics to `out`.
struct ReplayCosts {
  double decode_ns = 0;
  double verdict_encode_ns = 0;
};

ReplayCosts replay_layers(const Workload& w, const Capture& cap,
                          server::ClickSink& live, std::uint64_t time_offset,
                          std::uint64_t hash_range, const std::string& stem,
                          RunOutput& out) {
  const Columns& c = cap.cols();
  const std::size_t n = cap.size();
  const bool v2 = uses_v2(w);
  std::uint64_t checksum = 0;

  // Wire: decode + CRC of the captured clicks framed at the workload's
  // batch size, and verdict encoding of their verdicts.
  std::vector<std::uint8_t> frames;
  for (std::size_t off = 0, seq = 0; off < n; off += w.batch, ++seq) {
    const auto m = static_cast<std::uint32_t>(std::min<std::size_t>(w.batch, n - off));
    if (v2) {
      wire::append_click_batch_v2_cols(frames, seq, m, &c.ads[off], &c.ids[off],
                                       &c.times[off], &c.sources[off]);
    } else {
      wire::append_click_batch_cols(frames, seq, m, &c.ads[off], &c.ids[off],
                                    &c.times[off]);
    }
  }
  Columns dst;
  dst.resize(w.batch);
  const double decode = median_ns(5, [&] {
    std::size_t pos = 0;
    while (pos < frames.size()) {
      wire::FrameView f;
      std::size_t used = 0;
      std::string err;
      bool ok = wire::decode_frame({frames.data() + pos, frames.size() - pos},
                                   f, used, err) == wire::DecodeStatus::kFrame;
      if (v2) {
        wire::ClickBatchV2View b;
        ok = ok && wire::parse_click_batch_v2(f.payload, b, err);
        if (ok) {
          wire::deinterleave_clicks_v2(b.records, b.count, dst.ads.data(),
                                       dst.ids.data(), dst.times.data(),
                                       dst.sources.data());
        }
      } else {
        wire::ClickBatchView b;
        ok = ok && wire::parse_click_batch(f.payload, b, err);
        if (ok) {
          wire::deinterleave_clicks(b.records, b.count, dst.ads.data(),
                                    dst.ids.data(), dst.times.data());
        }
      }
      if (!ok) throw std::runtime_error("wire replay: " + err);
      checksum += dst.ids[0];
      pos += used;
    }
  });
  const double crc = median_ns(5, [&] { checksum += wire::crc32(frames); });
  const bool* verdicts = reinterpret_cast<const bool*>(cap.verdicts().data());
  std::vector<std::uint8_t> vout;
  const double encode = median_ns(5, [&] {
    vout.clear();
    for (std::size_t off = 0, seq = 0; off < n; off += w.batch, ++seq) {
      const std::size_t m = std::min<std::size_t>(w.batch, n - off);
      wire::append_verdict_batch(vout, seq, {verdicts + off, m});
    }
    checksum += vout.size();
  });
  ReplayCosts costs{decode / n, encode / n};
  out.add("server.wire.decode_ns_per_click", costs.decode_ns, "ns");
  out.add("server.wire.crc_ns_per_kib", crc / (static_cast<double>(frames.size()) / 1024), "ns");
  out.add("server.wire.verdict_encode_ns_per_click", costs.verdict_encode_ns, "ns");

  // Hashing: index derivation for the captured ids at the detector's k.
  const std::size_t k = w.kind == Kind::kTiered ? 7 : w.detector.hashes;
  const hashing::IndexFamily family(k, std::max<std::uint64_t>(hash_range, 1));
  std::vector<std::uint64_t> idx(1024 * k);
  const double hash = median_ns(5, [&] {
    for (std::size_t off = 0; off < n; off += 1024) {
      const std::size_t m = std::min<std::size_t>(1024, n - off);
      family.indices_batch({&c.ids[off], m}, {idx.data(), m * k});
      checksum += idx[0];
    }
  });
  out.add("hashing.indices_ns_per_click", hash / n, "ns");

  // Ads per sink offer, from the captured offer boundaries.
  double ads = 0;
  std::vector<std::uint32_t> scratch;
  std::size_t off = 0;
  for (const std::uint32_t size : cap.offer_sizes()) {
    scratch.assign(c.ads.begin() + off, c.ads.begin() + off + size);
    std::sort(scratch.begin(), scratch.end());
    ads += static_cast<double>(std::unique(scratch.begin(), scratch.end()) - scratch.begin());
    off += size;
  }
  out.add("adnet.ads_per_offer", ratio(ads, static_cast<double>(cap.offer_sizes().size())),
          "count");

  // Replication append: the captured offers into fresh rings. Times are
  // shifted past everything the live stack saw, so the apply replay below
  // keeps time-based windows monotone.
  Columns shifted = c;
  for (std::uint64_t& t : shifted.times) t += time_offset;
  server::ReplicationLog::Options lo;
  lo.max_batches = std::size_t{1} << 20;
  lo.max_bytes = std::size_t{1} << 36;
  std::unique_ptr<server::ReplicationLog> log;
  const double append = median_ns(3, [&] {
    log = std::make_unique<server::ReplicationLog>(lo);
    std::size_t pos = 0;
    for (const std::uint32_t size : cap.offer_sizes()) {
      log->append({&shifted.ads[pos], size}, {&shifted.ids[pos], size},
                  {&shifted.times[pos], size}, {&shifted.sources[pos], size});
      pos += size;
    }
  });
  out.add("server.replication.append_ns_per_click", append / n, "ns");
  std::vector<std::uint8_t> repl_frames;
  for (std::uint64_t seq = log->first_seq(); seq < log->next_seq(); ++seq) {
    server::ReplicationLog::Batch b;
    log->get(seq, b);
    wire::append_repl_batch(repl_frames, seq, b.count, b.records.data());
  }
  log.reset();

  // Snapshots of the live sink: save, restore into a fresh stack, then
  // apply the replication stream on top of the restored state.
  // One pass each: a pool snapshot runs to hundreds of MiB.
  const std::string path = stem + "-trace.snap";
  const std::uint64_t t_save = now_ns();
  server::IngestServer::save_sink_snapshot(live, path);
  out.add("core.snapshot.save_s", static_cast<double>(now_ns() - t_save) / 1e9, "s");
  std::string bytes = read_file(path);
  out.add("core.snapshot.bytes", static_cast<double>(bytes.size()), "B");
  {
    SinkStack fresh = build_stack(w);
    const std::uint64_t t0 = now_ns();
    server::IngestServer::restore_sink_snapshot(*fresh.top, path);
    out.add("core.snapshot.restore_s", static_cast<double>(now_ns() - t0) / 1e9, "s");
    server::ReplicationApplier applier(*fresh.top);
    const std::uint64_t t1 = now_ns();
    apply_frames(applier, repl_frames);
    out.add("server.replication.apply_ns_per_click",
            static_cast<double>(now_ns() - t1) / n, "ns");
  }
  std::remove(path.c_str());

  // Catch-up: the same snapshot shipped as chunked REPL_SNAPSHOT frames.
  std::vector<std::uint8_t> snap_frames;
  const std::size_t chunk = wire::kMaxReplSnapshotChunkBytes;
  const auto chunks = static_cast<std::uint32_t>((bytes.size() + chunk - 1) / chunk);
  for (std::uint32_t i = 0; i < chunks; ++i) {
    const std::size_t from = i * chunk;
    wire::append_repl_snapshot(
        snap_frames, 1, i, chunks,
        {reinterpret_cast<const std::uint8_t*>(bytes.data()) + from,
         std::min(chunk, bytes.size() - from)});
  }
  bytes.clear();
  bytes.shrink_to_fit();
  {
    SinkStack fresh = build_stack(w);
    server::ReplicationApplier applier(*fresh.top);
    const std::uint64_t t0 = now_ns();
    apply_frames(applier, snap_frames);
    out.add("server.replication.catchup_s", static_cast<double>(now_ns() - t0) / 1e9, "s");
  }
  g_replay_sink = checksum;
  return costs;
}

}  // namespace

RunOutput run_traced(const Workload& w, const Options& o) {
  RunOutput out;
  ClientSet set(w, o.seed);
  const std::string stem = o.workdir + "/" + w.name;
  if (w.kind == Kind::kEnforce) {
    build_restore_snapshot(w, *set.traffic[0], set.clients[0]->stats(),
                           stem + "-base.snap");
  }
  Capture capture(std::size_t{1} << 20);
  SinkStack stack = build_stack(w, /*traced=*/true, &capture);
  std::unique_ptr<server::ReplicationLog> log;
  server::IngestServer::Options so;
  so.loops = w.loops;
  if (w.kind == Kind::kEnforce) {
    server::IngestServer::restore_sink_snapshot(*stack.top, stem + "-base.snap");
    server::ReplicationLog::Options lo;
    lo.start_seq = 2;  // the restored baseline stands in for sequence 1
    log = std::make_unique<server::ReplicationLog>(lo);
    so.replication = log.get();
  }
  server::IngestServer srv(*stack.top, so);
  const std::uint16_t port = srv.listen("127.0.0.1", 0);
  std::string server_error;
  std::thread server_thread([&] {
    try {
      srv.run();
    } catch (const std::exception& e) {
      server_error = e.what();
    }
  });
  const JoinOnExit join_server{server_thread, [&srv] { srv.stop(); }};

  std::unique_ptr<server::ReplicationSource> source;
  SinkStack follower_stack;
  std::unique_ptr<server::ReplicationApplier> applier;
  std::unique_ptr<server::ReplicationFollower> follower;
  if (log) {
    source = std::make_unique<server::ReplicationSource>(
        *log, [&srv](std::uint64_t& base) { return srv.replication_snapshot(base); });
    const std::uint16_t rport = source->listen("127.0.0.1", 0);
    source->start();
    follower_stack = build_stack(w);
    applier = std::make_unique<server::ReplicationApplier>(*follower_stack.top);
    follower = std::make_unique<server::ReplicationFollower>("127.0.0.1", rport, *applier);
    follower->start();
  }

  // Warm-up runs traced so every event-loop thread registers its CPU clock.
  g_trace_on.store(true);
  connect_clients(w, port, set.clients);

  std::vector<ThreadTrace*> loops;
  Sample traced, begin;
  std::vector<double> closed_rates;  ///< clicks/s, traced and untraced in turn
  std::atomic<bool> sampling{false};
  std::vector<double> lag_batches;
  std::uint64_t ring_bytes = 0;
  std::thread lag_thread;
  const JoinOnExit join_lag{lag_thread, [&sampling] { sampling.store(false); }};
  // Segments run in groups of four: closed traced, open traced, closed
  // untraced, open capturing. The median over neighbouring closed pairs of
  // their throughput ratio is the tracing overhead (neighbours share the
  // host's state of the moment). Only the traced segments feed the layer
  // metrics: the capture copies every offer on the event-loop thread, so
  // it runs in segments of its own, with the decorators forwarding only.
  const auto traced_segment = [](std::size_t k) { return (k / 2) % 2 == 0; };
  const auto capture_segment = [](std::size_t k) { return k % 4 == 3; };
  Hooks hooks;
  hooks.begin = [&](std::size_t k, const Segment&) {
    if (k == 0) {
      for (ThreadTrace* t : thread_traces()) {
        if (t->calls[kSinkLayer].load(std::memory_order_relaxed) > 0) loops.push_back(t);
      }
      if (log) {
        sampling.store(true);
        lag_thread = std::thread([&] {
          while (sampling.load()) {
            const std::uint64_t head = log->next_seq() - 1;
            const std::uint64_t applied = applier->next_seq() - 1;
            lag_batches.push_back(head > applied ? static_cast<double>(head - applied) : 0.0);
            ring_bytes = std::max<std::uint64_t>(ring_bytes, log->bytes());
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          }
        });
      }
    }
    g_trace_on.store(traced_segment(k));
    capture.active.store(capture_segment(k));
    begin = take(srv, loops);
  };
  hooks.end = [&](std::size_t k, const Segment& segment) {
    const Sample s = take(srv, loops);
    capture.active.store(false);
    if (traced_segment(k)) traced.add_delta(s, begin);
    if (!segment.open) {
      closed_rates.push_back(ratio(static_cast<double>(s.clicks - begin.clicks),
                                 static_cast<double>(s.t_ns - begin.t_ns)));
    }
  };
  drive(set.clients, o.seconds, hooks);
  g_trace_on.store(false);
  sampling.store(false);
  if (lag_thread.joinable()) lag_thread.join();

  srv.stop();
  server_thread.join();
  srv.drain();
  if (!server_error.empty()) out.problems.push_back("server: " + server_error);
  if (log) {
    const std::uint64_t last = log->next_seq() - 1;
    if (!source->wait_followers_caught_up(last, 10'000)) {
      out.problems.push_back("follower did not acknowledge the last batch");
    }
    source->stop();
    follower->stop();
    std::ostringstream a(std::ios::binary), b(std::ios::binary);
    stack.top->save_state(a);
    follower_stack.top->save_state(b);
    std::size_t moved = 0;
    const StateMatch m =
        compare_sink_states(a.str(), b.str(), w.policy.offender_capacity, moved);
    check_follower_state(m, moved, out);
  }

  // Live layer metrics over the traced windows. Loop CPU covers every
  // click; spans cover the sampled offers, so each divides by its own.
  const double clicks = static_cast<double>(traced.clicks);
  const double sampled = static_cast<double>(traced.layer_clicks[kSinkLayer]);
  const auto span_ns = [&](Layer l) { return ratio(static_cast<double>(traced.ns[l]), sampled); };
  const double cpu = ratio(static_cast<double>(traced.cpu_ns), clicks);
  std::vector<double> lag;
  double encode_ns = 0, encoded = 0;
  for (const auto& c : set.clients) {
    lag.insert(lag.end(), c->stats().lag_us.begin(), c->stats().lag_us.end());
    encode_ns += static_cast<double>(c->stats().encode_ns);
    encoded += static_cast<double>(c->stats().encoded_clicks);
  }
  std::sort(lag.begin(), lag.end());
  std::sort(lag_batches.begin(), lag_batches.end());
  out.add("loadgen.encode_ns_per_click", ratio(encode_ns, encoded), "ns");
  out.add("loadgen.lag_p99_us", quantile_sorted(lag, 0.99), "us");
  out.add("server.loop.cpu_ns_per_click", cpu, "ns");
  out.add("server.loop.self_ns_per_click", cpu - span_ns(kSinkLayer), "ns");
  out.add("server.loop.idle_share",
          1.0 - ratio(static_cast<double>(traced.cpu_ns),
                    static_cast<double>(traced.t_ns) * static_cast<double>(loops.size())),
          "ratio");
  out.add("server.loop.bytes_in_per_click", ratio(static_cast<double>(traced.bytes_in), clicks), "B");
  out.add("server.loop.bytes_out_per_click", ratio(static_cast<double>(traced.bytes_out), clicks),
          "B");
  out.add("server.loop.backpressure_pauses", static_cast<double>(traced.pauses), "count");
  out.add("server.ingest.clicks_per_flush", ratio(clicks, static_cast<double>(traced.flushes)),
          "count");
  out.add("server.ingest.sink_ns_per_click", span_ns(kSinkLayer), "ns");
  out.add("enforce.self_ns_per_click", span_ns(kSinkLayer) - span_ns(kEnforceInner), "ns");
  out.add("adnet.self_ns_per_click", span_ns(kEnforceInner) - span_ns(kDetectorOuter), "ns");

  // The tiered pool's detectors are private to it: the detector layers are
  // then measured by replaying the captured clicks through a detector with
  // the shared tail's window and memory (every tiered click reaches it).
  Sample detector = traced;
  double detector_clicks = sampled;
  if (traced.calls[kDetectorInner] == 0 && stack.tiered && capture.size() > 0) {
    core::DetectorBudget budget;
    budget.total_memory_bits = stack.tiered->stats().tail_memory_bits;
    TimingDetector det(
        std::make_unique<TimingDetector>(
            core::make_detector(core::WindowSpec::sliding_count(w.tiered.tail_window_clicks),
                                budget),
            kDetectorInner),
        kDetectorOuter);
    std::vector<char> verdicts(wire::kMaxClicksPerBatch);
    g_trace_on.store(true);
    const Sample before = layer_totals();
    std::size_t pos = 0;
    for (const std::uint32_t size : capture.offer_sizes()) {
      det.offer_batch({&capture.cols().ids[pos], size}, {&capture.cols().times[pos], size},
                      {reinterpret_cast<bool*>(verdicts.data()), size});
      pos += size;
    }
    g_trace_on.store(false);
    detector = Sample{};
    detector.add_delta(layer_totals(), before);
    detector_clicks = static_cast<double>(capture.size());
  }
  out.add("core.sharded.self_ns_per_click",
          ratio(static_cast<double>(detector.ns[kDetectorOuter]) -
                  static_cast<double>(detector.ns[kDetectorInner]),
              detector_clicks),
          "ns");
  out.add("core.detector.ns_per_click",
          ratio(static_cast<double>(detector.ns[kDetectorInner]), detector_clicks), "ns");
  out.add("core.detector.clicks_per_call",
          ratio(static_cast<double>(detector.layer_clicks[kDetectorInner]),
              static_cast<double>(detector.calls[kDetectorInner])),
          "count");
  out.add("core.detector.memory_bits",
          static_cast<double>(stack.top->stats_report().memory_bits), "bits");

  const adnet::TierStats tier = stack.tiered ? stack.tiered->stats() : adnet::TierStats{};
  out.add("adnet.tiered.hot_click_share",
          ratio(static_cast<double>(tier.hot_clicks), static_cast<double>(tier.clicks)), "ratio");
  out.add("adnet.tiered.promotions", static_cast<double>(tier.promotions), "count");
  out.add("adnet.tiered.deferrals", static_cast<double>(tier.promotion_deferrals), "count");

  const enforce::ReputationLedger::Stats ledger =
      stack.ledger ? stack.ledger->stats() : enforce::ReputationLedger::Stats{};
  const double rejected = stack.enforcing ? static_cast<double>(stack.enforcing->rejected()) : 0;
  out.add("enforce.rejected_share", ratio(rejected, static_cast<double>(srv.stats().clicks)),
          "ratio");
  out.add("enforce.sources", static_cast<double>(ledger.sources), "count");
  out.add("enforce.blocked", static_cast<double>(ledger.blocked), "count");
  out.add("server.replication.lag_batches_p99", quantile_sorted(lag_batches, 0.99), "count");
  out.add("server.replication.ring_bytes", static_cast<double>(ring_bytes), "B");

  if (capture.size() == 0) {
    throw std::runtime_error("no batches captured for the replays (a traced run needs "
                             "--seconds of at least 2)");
  }
  std::uint64_t time_offset = 0;
  for (const auto& c : set.clients) {
    time_offset = std::max<std::uint64_t>(time_offset, c->stats().verdicts.size() * 8 + 1);
  }
  const std::uint64_t hash_range =
      w.kind == Kind::kTiered ? tier.tail_memory_bits
                              : w.detector.memory_bits / std::max<std::size_t>(1, w.detector.shards);
  const ReplayCosts costs =
      replay_layers(w, capture, *stack.top, time_offset, hash_range, stem, out);

  const Quality q = check_clients(w, o, set.clients, out);
  out.add("enforce.fraud_paid_ratio",
          ratio(static_cast<double>(q.attacker_paid), static_cast<double>(q.attacker)), "ratio");
  std::vector<double> overhead;
  for (std::size_t i = 0; i + 1 < closed_rates.size(); i += 2) {
    overhead.push_back(ratio(closed_rates[i], closed_rates[i + 1]));
  }
  out.add("trace.overhead_ratio", summarize(overhead).median, "ratio");
  out.add("trace.unattributed_share",
          ratio(cpu - span_ns(kSinkLayer) - costs.decode_ns - costs.verdict_encode_ns, cpu),
          "ratio");
  dump_spans(stem + "-seed" + std::to_string(o.seed) + "-spans.csv");
  return out;
}

}  // namespace e2e
