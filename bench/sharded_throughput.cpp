// Sharded ingestion throughput: the trajectory bench for the parallel
// batched hot path.
//
// Sweeps {1,2,4,8} threads × {1,4,16,64} shards × {GBF, TBF} over one
// Zipf click stream (heavy-tailed duplicates, like real ad traffic) and
// measures three ingestion modes per configuration:
//   * offer  — the legacy path: one virtual call + one mutex acquisition
//     per click, threads = 1 (this is the "single-thread mutex-per-offer
//     baseline" every speedup is quoted against);
//   * batch  — ShardedDetector::offer_batch: micro-batches bucketized by
//     shard, one lock per shard per batch, pipelined inner offer_batch,
//     optional fan-out across ShardedDetector::Options::threads;
//   * engine — the same offer_batch surface running the lock-free
//     owner-pinned SPSC engine (EngineMode::kSpscOwner): buckets are
//     posted to long-lived owner threads through SPSC rings, no mutex on
//     the hot path. Interleaved rep-by-rep with the mutex arms and
//     subject to a regression floor: on hosts with ≥ 4 hardware threads,
//     engine throughput at threads ≥ 4 must be ≥ 1.3× the mutex batch
//     arm, or the bench exits nonzero.
//
// Filters are sized cache-hostile on purpose (the production regime: a
// window of millions of clicks does not fit in L2), which is exactly where
// the batch path's prefetch pipelining pays. --json=<path> records the
// series machine-readably; the checked-in BENCH_sharded_throughput.json is
// this bench's output and the perf baseline future PRs diff against.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/group_bloom_filter.hpp"
#include "core/sharded_detector.hpp"
#include "core/timing_bloom_filter.hpp"
#include "stream/rng.hpp"
#include "stream/zipf.hpp"

namespace {

using namespace ppc;

constexpr std::size_t kBatch = 16384;  // micro-batch fed to offer_batch
// Global windows, split per shard. The GBF window is production-sized: at
// 64 shards each shard still holds ~hundreds of KiB, so the total working
// set stays DRAM-resident at every shard count and the baseline never
// gets an accidental all-in-cache advantage the real system would not see.
constexpr std::uint64_t kGbfWindow = 1 << 22;
constexpr std::uint64_t kTbfWindow = 1 << 20;  // TBF entries are ~25x wider
constexpr std::uint32_t kGbfQ = 8;
constexpr std::size_t kHashes = 7;

core::ShardedDetector::Factory gbf_factory(std::size_t shards) {
  const std::uint64_t shard_window = kGbfWindow / shards;
  return [shard_window](std::size_t) {
    core::GroupBloomFilter::Options opts;
    // Design-point fill (m ≈ 10·n for k=7), as in thm1_gbf_throughput.
    opts.bits_per_subfilter = 10 * (shard_window / kGbfQ);
    opts.hash_count = kHashes;
    return std::make_unique<core::GroupBloomFilter>(
        core::WindowSpec::jumping_count(shard_window, kGbfQ), opts);
  };
}

core::ShardedDetector::Factory tbf_factory(std::size_t shards) {
  const std::uint64_t shard_window = kTbfWindow / shards;
  return [shard_window](std::size_t) {
    core::TimingBloomFilter::Options opts;
    opts.entries = shard_window * 16;  // m/N = 16, as in thm2
    opts.hash_count = kHashes;
    return std::make_unique<core::TimingBloomFilter>(
        core::WindowSpec::sliding_count(shard_window), opts);
  };
}

/// Zipf-duplicate click stream: ranks over a universe ~4 GBF-windows wide
/// so a solid fraction of arrivals are within-window repeats. ONE stream
/// serves every configuration — speedups are same-stream by construction.
std::vector<core::ClickId> make_stream(std::size_t count) {
  stream::Rng rng(2026);
  const stream::ZipfSampler zipf(kGbfWindow * 4, 1.05);
  std::vector<core::ClickId> ids(count);
  for (auto& id : ids) {
    id = hashing::fmix64(zipf.sample(rng) + 0x9e3779b97f4a7c15ull);
  }
  return ids;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One timed ingestion pass; returns clicks/second.
double run_offer(core::ShardedDetector& d,
                 const std::vector<core::ClickId>& ids) {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t flagged = 0;
  for (const core::ClickId id : ids) flagged += d.offer(id) ? 1 : 0;
  const double secs = seconds_since(t0);
  if (flagged == ids.size() + 1) std::puts("");  // defeat dead-code elision
  return static_cast<double>(ids.size()) / secs;
}

double run_batch(core::ShardedDetector& d,
                 const std::vector<core::ClickId>& ids) {
  std::vector<char> verdicts(kBatch);
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t flagged = 0;
  for (std::size_t off = 0; off < ids.size(); off += kBatch) {
    const std::size_t n = std::min(kBatch, ids.size() - off);
    d.offer_batch(
        std::span<const core::ClickId>(ids.data() + off, n),
        std::span<bool>(reinterpret_cast<bool*>(verdicts.data()), n));
    flagged += verdicts[0] != 0 ? 1 : 0;
  }
  const double secs = seconds_since(t0);
  if (flagged == ids.size() + 1) std::puts("");
  return static_cast<double>(ids.size()) / secs;
}

struct Algo {
  const char* name;
  core::ShardedDetector::Factory (*factory)(std::size_t shards);
};

}  // namespace

int main(int argc, char** argv) {
  const auto args = benchutil::Args::parse(argc, argv);
  // Default stream: 2^22 clicks scaled down (scale=4 → 2^18); --paper runs
  // the full stream.
  const std::size_t stream_len =
      static_cast<std::size_t>(args.scaled(std::uint64_t{1} << 22));
  const auto ids = make_stream(stream_len);

  const Algo algos[] = {{"gbf", &gbf_factory}, {"tbf", &tbf_factory}};
  const std::size_t shard_counts[] = {1, 4, 16, 64};
  std::vector<std::size_t> thread_counts = {1, 2, 4, 8};
  if (args.threads > 0) {
    thread_counts = {static_cast<std::size_t>(args.threads)};
  }

  benchutil::JsonSeriesWriter json("sharded_throughput", args.json);
  // Host metadata rides in the JSON header: throughput and speedup numbers
  // are only comparable against a baseline recorded on the same class of
  // machine, and the engine-vs-mutex gain in particular is meaningless on
  // a single-hardware-thread box.
  json.set_meta("hw_threads",
                static_cast<double>(runtime::ThreadPool::hardware_threads()));
  json.set_meta("cpu_model", benchutil::cpu_model_string());
  std::printf("sharded ingestion: %zu clicks, batch=%zu, gbf window=%llu, "
              "tbf window=%llu (hardware threads: %zu)\n\n",
              ids.size(), kBatch,
              static_cast<unsigned long long>(kGbfWindow),
              static_cast<unsigned long long>(kTbfWindow),
              runtime::ThreadPool::hardware_threads());
  // batch = the mutex offer_batch path; engine = the SPSC owner engine.
  // The last column is the engine's gain over batch (the lock-free
  // engine's contribution alone — same hashing, same memory traffic).
  std::printf("%6s %7s %8s %8s %12s %9s %9s\n", "algo", "shards", "mode",
              "threads", "Mclicks/s", "speedup", "gain");
  benchutil::print_rule(6, 9);

  // Regression-floor violations (engine < 1.3× mutex batch at threads ≥ 4)
  // collected across the sweep; asserted at exit so one bad cell fails CI.
  std::vector<std::string> floor_violations;
  const bool check_floor = runtime::ThreadPool::hardware_threads() >= 4;
  if (!check_floor) {
    std::printf("note: %zu hardware thread(s) — the engine-vs-mutex floor "
                "(engine >= 1.3x batch at threads >= 4) is recorded but not "
                "asserted; owner threads cannot run in parallel here.\n\n",
                runtime::ThreadPool::hardware_threads());
  }

  for (const Algo& algo : algos) {
    for (const std::size_t shards : shard_counts) {
      // Baseline: mutex-per-offer on one thread — today's upstream path.
      // Best-of-3 timed passes (each from a reset filter, so every rep
      // ingests the identical workload) on both sides: this box is a
      // shared-host VM and single-pass numbers wobble ±10%.
      constexpr int kReps = 3;
      double offer_cps = 0;
      {
        core::ShardedDetector d(shards, algo.factory(shards));
        run_offer(d, ids);  // warm up filters + caches, then measure
        for (int rep = 0; rep < kReps; ++rep) {
          d.reset();
          offer_cps = std::max(offer_cps, run_offer(d, ids));
        }
      }
      std::printf("%6s %7zu %8s %8d %12.3f %9.2f %9s\n", algo.name, shards,
                  "offer", 1, offer_cps / 1e6, 1.0, "-");
      json.add(algo.name, {{"shards", static_cast<double>(shards)},
                           {"mode_batch", 0},
                           {"threads", 1},
                           {"clicks", static_cast<double>(ids.size())},
                           {"mclicks_per_s", offer_cps / 1e6},
                           {"speedup_vs_mutex_offer", 1.0}});

      for (const std::size_t threads : thread_counts) {
        core::ShardedDetector d(
            shards, algo.factory(shards),
            {.threads = threads,
             .engine = core::ShardedDetector::EngineMode::kMutex});
        core::ShardedDetector e(
            shards, algo.factory(shards),
            {.threads = threads,
             .engine = core::ShardedDetector::EngineMode::kSpscOwner});
        run_batch(d, ids);  // warm up filters + caches once for all arms
        run_batch(e, ids);

        // Two arms, INTERLEAVED rep-by-rep so the shared-host clock drift
        // (turbo decay / CPU-credit burn over an 8-minute run) hits both
        // equally — arm-after-arm ordering showed a phantom ±10% skew on
        // whichever arm ran second.
        double batch_cps = 0;
        double engine_cps = 0;
        for (int rep = 0; rep < kReps; ++rep) {
          d.reset();
          batch_cps = std::max(batch_cps, run_batch(d, ids));
          e.reset();
          engine_cps = std::max(engine_cps, run_batch(e, ids));
        }

        const double speedup = batch_cps / offer_cps;
        const double engine_gain = engine_cps / batch_cps;
        std::printf("%6s %7zu %8s %8zu %12.3f %9.2f %9s\n", algo.name,
                    shards, "batch", threads, batch_cps / 1e6, speedup, "-");
        std::printf("%6s %7zu %8s %8zu %12.3f %9.2f %9.2f\n", algo.name,
                    shards, "engine", threads, engine_cps / 1e6,
                    engine_cps / offer_cps, engine_gain);
        json.add(algo.name, {{"shards", static_cast<double>(shards)},
                             {"mode_batch", 1},
                             {"engine", 0},
                             {"threads", static_cast<double>(threads)},
                             {"clicks", static_cast<double>(ids.size())},
                             {"mclicks_per_s", batch_cps / 1e6},
                             {"speedup_vs_mutex_offer", speedup}});
        json.add(algo.name, {{"shards", static_cast<double>(shards)},
                             {"mode_batch", 1},
                             {"engine", 1},
                             {"threads", static_cast<double>(threads)},
                             {"clicks", static_cast<double>(ids.size())},
                             {"mclicks_per_s", engine_cps / 1e6},
                             {"speedup_vs_mutex_offer",
                              engine_cps / offer_cps},
                             {"engine_gain_vs_mutex_batch", engine_gain}});
        if (check_floor && threads >= 4 && engine_gain < 1.3) {
          char buf[128];
          std::snprintf(buf, sizeof(buf),
                        "%s shards=%zu threads=%zu: engine %.2fx mutex "
                        "batch (floor 1.30x)",
                        algo.name, shards, threads, engine_gain);
          floor_violations.emplace_back(buf);
        }
      }
    }
  }
  json.write();
  if (!floor_violations.empty()) {
    std::fprintf(stderr, "\nengine regression floor FAILED:\n");
    for (const auto& v : floor_violations) {
      std::fprintf(stderr, "  %s\n", v.c_str());
    }
    return 1;
  }
  return 0;
}
