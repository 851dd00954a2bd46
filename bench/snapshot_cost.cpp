// Snapshot cost: what a checkpoint actually costs the serving path.
//
// Sweeps filter memory over {2^20, 2^23, 2^26} bits (scaled by --scale) for
// every snapshot-capable layer — GBF, TBF, ShardedDetector (saving each
// shard under its lock), and a 64-ad DetectorPool — and measures:
//   * save_us / restore_us — in-memory serialize/deserialize wall time
//     (median of 5, after warming the filter to a realistic fill);
//   * bytes — the serialized size, CRC envelope included;
//   * file_us — for the sharded arm, IngestServer::save_sink_snapshot's
//     full atomic file protocol (temp + write + fsync + rename), i.e. what
//     a SIGTERM drain adds before the process may exit (median of 5).
// The checked-in BENCH_snapshot_cost.json is this bench's output; a PR that
// bloats the format or slows a save shows up as a diff there.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "adnet/detector_pool.hpp"
#include "bench_util.hpp"
#include "core/group_bloom_filter.hpp"
#include "core/sharded_detector.hpp"
#include "core/timing_bloom_filter.hpp"
#include "runtime/thread_pool.hpp"
#include "server/ingest_server.hpp"
#include "stream/rng.hpp"

namespace {

using namespace ppc;

constexpr std::uint32_t kQ = 8;
constexpr std::size_t kHashes = 7;
constexpr std::size_t kShards = 8;
constexpr std::size_t kThreads = 4;
constexpr std::size_t kPoolAds = 64;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Warm a detector to a realistic fill: one window's worth of arrivals.
void warm(core::DuplicateDetector& d, std::uint64_t arrivals,
          std::uint64_t seed) {
  stream::Rng rng(seed);
  for (std::uint64_t i = 0; i < arrivals; ++i) {
    d.offer(rng.next(), i);
  }
}

struct Cost {
  double save_us = 0;
  double restore_us = 0;
  double bytes = 0;
};

/// Median-of-`reps` in-memory save + restore-into-fresh-instance timing.
template <typename MakeFn>
Cost measure(const MakeFn& make, std::uint64_t warm_arrivals,
             int reps = 5) {
  auto live = make();
  warm(*live, warm_arrivals, 7);
  Cost cost;
  std::vector<double> save_us, restore_us;
  for (int rep = 0; rep < reps; ++rep) {
    std::ostringstream out(std::ios::binary);
    auto t0 = std::chrono::steady_clock::now();
    live->save(out);
    save_us.push_back(seconds_since(t0) * 1e6);
    const std::string bytes = out.str();
    cost.bytes = static_cast<double>(bytes.size());

    auto fresh = make();
    std::istringstream in(bytes, std::ios::binary);
    t0 = std::chrono::steady_clock::now();
    fresh->restore(in);
    restore_us.push_back(seconds_since(t0) * 1e6);
  }
  cost.save_us = benchutil::summarize(save_us).median;
  cost.restore_us = benchutil::summarize(restore_us).median;
  return cost;
}

core::ShardedDetector::Factory shard_factory(std::uint64_t total_bits) {
  const std::uint64_t window = total_bits / 10;  // design-point m ≈ 10n
  return [total_bits, window](std::size_t) {
    core::GroupBloomFilter::Options opts;
    opts.bits_per_subfilter = total_bits / kShards / kQ;
    opts.hash_count = kHashes;
    return std::make_unique<core::GroupBloomFilter>(
        core::WindowSpec::jumping_count(
            std::max<std::uint64_t>(kQ, window / kShards), kQ),
        opts);
  };
}

/// The drain-time file protocol (temp + write + fsync + rename) for a
/// detector behind a DetectorSink; median-of-`reps` microseconds.
double measure_file_us(core::DuplicateDetector& d, int reps = 5) {
  server::DetectorSink sink(d);
  const std::string path = "/tmp/ppc_snapshot_cost.snap";
  std::vector<double> us;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    server::IngestServer::save_sink_snapshot(sink, path);
    us.push_back(seconds_since(t0) * 1e6);
  }
  std::remove(path.c_str());
  return benchutil::summarize(us).median;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = benchutil::Args::parse(argc, argv);
  benchutil::JsonSeriesWriter json("snapshot_cost", args.json);
  json.set_meta("hw_threads",
                static_cast<double>(runtime::ThreadPool::hardware_threads()));
  json.set_meta("cpu_model", benchutil::cpu_model_string());
  json.set_meta("statistic", "median of 5");

  std::printf("snapshot cost (save/restore wall time vs filter memory; "
              "file = atomic write + fsync of the sharded arm)\n\n");
  std::printf("%10s %12s %12s %12s %12s %12s\n", "series", "mem_bits",
              "bytes", "save_us", "restore_us", "MB/s(save)");
  benchutil::print_rule(6, 13);

  for (const int shift : {20, 23, 26}) {
    const std::uint64_t bits = args.scaled(std::uint64_t{1} << shift);
    const std::uint64_t window = bits / 10;

    const auto report = [&](const std::string& series, const Cost& c) {
      std::printf("%10s %12llu %12.0f %12.1f %12.1f %12.1f\n", series.c_str(),
                  static_cast<unsigned long long>(bits), c.bytes, c.save_us,
                  c.restore_us, c.bytes / c.save_us);  // bytes/us == MB/s
      json.add(series, {{"mem_bits", static_cast<double>(bits)},
                        {"bytes", c.bytes},
                        {"save_us", c.save_us},
                        {"restore_us", c.restore_us}});
    };

    report("gbf", measure(
                      [&] {
                        core::GroupBloomFilter::Options opts;
                        opts.bits_per_subfilter = bits / kQ;
                        opts.hash_count = kHashes;
                        return std::make_unique<core::GroupBloomFilter>(
                            core::WindowSpec::jumping_count(
                                std::max<std::uint64_t>(kQ, window), kQ),
                            opts);
                      },
                      window));

    report("tbf", measure(
                      [&] {
                        core::TimingBloomFilter::Options opts;
                        // Equal PAYLOAD memory: entries ~ bits / entry width.
                        opts.entries = std::max<std::uint64_t>(64, bits / 16);
                        opts.hash_count = kHashes;
                        return std::make_unique<core::TimingBloomFilter>(
                            core::WindowSpec::sliding_count(
                                std::max<std::uint64_t>(64, window)),
                            opts);
                      },
                      window));

    report("sharded", measure(
                          [&] {
                            return std::make_unique<core::ShardedDetector>(
                                kShards, shard_factory(bits),
                                core::ShardedDetector::Options{
                                    .threads = kThreads});
                          },
                          window));

    // Drain-time file protocol on the sharded arm (fsync dominates
    // at small sizes — that is the point of recording it).
    {
      core::ShardedDetector d(kShards, shard_factory(bits));
      warm(d, window, 7);
      const double file_us = measure_file_us(d);
      std::printf("%10s %12llu %12s %12.1f %12s %12s\n", "file",
                  static_cast<unsigned long long>(bits), "-", file_us, "-",
                  "-");
      json.add("file", {{"mem_bits", static_cast<double>(bits)},
                        {"save_us", file_us}});
    }

    // Pool of small per-ad filters: many nested sections, per-ad overhead.
    {
      const adnet::DetectorPool::Factory factory = [&](std::uint32_t) {
        core::GroupBloomFilter::Options opts;
        opts.bits_per_subfilter =
            std::max<std::uint64_t>(64, bits / kPoolAds / kQ);
        opts.hash_count = kHashes;
        return std::make_unique<core::GroupBloomFilter>(
            core::WindowSpec::jumping_count(
                std::max<std::uint64_t>(kQ, window / kPoolAds), kQ),
            opts);
      };
      adnet::DetectorPool live(factory);
      stream::Rng rng(7);
      for (std::uint64_t i = 0; i < window; ++i) {
        live.offer(static_cast<std::uint32_t>(i % kPoolAds), rng.next(), i);
      }
      Cost c;
      c.save_us = 1e18;
      c.restore_us = 1e18;
      for (int rep = 0; rep < 5; ++rep) {
        std::ostringstream out(std::ios::binary);
        auto t0 = std::chrono::steady_clock::now();
        live.save(out);
        c.save_us = std::min(c.save_us, seconds_since(t0) * 1e6);
        const std::string bytes = out.str();
        c.bytes = static_cast<double>(bytes.size());

        adnet::DetectorPool fresh(factory);
        std::istringstream in(bytes, std::ios::binary);
        t0 = std::chrono::steady_clock::now();
        fresh.restore(in);
        c.restore_us = std::min(c.restore_us, seconds_since(t0) * 1e6);
      }
      report("pool64", c);
    }
  }
  json.write();
  return 0;
}
