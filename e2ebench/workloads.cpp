#include "workloads.hpp"

#include <cstdio>
#include <stdexcept>

#include "hashing/hash_common.hpp"
#include "stream/rng.hpp"
#include "stream/zipf.hpp"
#include "trace.hpp"

namespace e2e {

namespace {

namespace stream = ppc::stream;

// Nominal open-loop rates are ≈40% of the median closed-loop capacity
// measured on a shared 4-vCPU Xeon (Sapphire Rapids, KVM) at the commit that
// introduced this benchmark — low enough that the host's slow spells do not
// push the open loop into queueing — and stay frozen so later commits are
// measured at the same offered load.
std::vector<Workload> make_workloads() {
  std::vector<Workload> all;

  // Per-ad GBF at steady state: 32 ads over two connections and two
  // loops, windows full, 1 MiB of filter per ad (GBF's 64-bit word lanes
  // hold Q+1 = 9 sub-filter bits, so ~7x that resident), ~20% planted
  // replays. Batch 4096 amortizes the wire, so the detector, sharding and
  // hashing layers dominate.
  Workload bulk;
  bulk.name = "pool_bulk";
  bulk.kind = Kind::kPool;
  bulk.connections = 2;
  bulk.batch = 4096;
  bulk.open_rate = 6.5e6;
  bulk.loops = 2;
  bulk.window = "jumping:262144:8";
  bulk.window_span = 262144;
  bulk.detector.window = server::parse_window_spec(bulk.window);
  bulk.detector.memory_bits = std::uint64_t{1} << 23;  // 1 MiB per ad
  bulk.detector.hashes = 4;
  bulk.detector.shards = 4;
  bulk.warmup_clicks = 16 * bulk.window_span;  // fills the connection's 16 ads
  all.push_back(bulk);

  // The same daemon and click stream at batch 64: identical detector work
  // per click, ~64x the frames, CRCs, syscalls and flushes. A wire or
  // event-loop change shows here; a detector change barely moves it.
  Workload small = bulk;
  small.name = "pool_smallbatch";
  small.batch = 64;
  small.open_rate = 3.0e6;
  all.push_back(small);

  // Open tenant population: 1,048,576 distinct ads (70% Zipf(1.1), 30% a
  // round-robin sweep) through the tiered pool on one ordered connection.
  // The only workload running SpaceSaving, the composite-key tail and
  // tier moves.
  Workload tiered;
  tiered.name = "tiered_millionads";
  tiered.kind = Kind::kTiered;
  tiered.connections = 1;
  tiered.batch = 1024;
  tiered.open_rate = 0.5e6;
  tiered.loops = 1;
  tiered.window = "sliding:4096";
  tiered.tiered.memory_cap_bits = std::uint64_t{1024} << 23;
  tiered.tiered.hot_window = server::parse_window_spec(tiered.window);
  tiered.window_span = tiered.tiered.tail_window_clicks;
  tiered.warmup_clicks = 2 * tiered.tiered.tail_window_clicks;
  all.push_back(tiered);

  // Enforcement + warm standby: a primary restored from a window-full
  // snapshot, streaming to one follower; v2 clicks with sources; a
  // sliding-time TBF window; Zipf background mixed with botnet,
  // low-and-slow and NAT-crowd traffic, ~50% replays.
  Workload enf;
  enf.name = "enforce_replicated";
  enf.kind = Kind::kEnforce;
  enf.connections = 1;
  enf.batch = 1024;
  enf.open_rate = 1.5e6;
  enf.loops = 1;
  enf.window = "sliding-time:524288:512";
  enf.window_span = 524288;  // µs; the generator's clock advances 1 µs/click
  enf.detector.window = server::parse_window_spec(enf.window);
  enf.detector.memory_bits = std::uint64_t{2} << 23;
  enf.detector.hashes = 4;
  // Default thresholds; blocks last 4 s of generator time, so bots are
  // released and re-blocked several times per run.
  enf.policy.score_half_life_us = 2'000'000;
  enf.policy.block_ttl_us = 4'000'000;
  enf.restore_clicks = 2 * enf.window_span;
  enf.warmup_clicks = std::uint64_t{1} << 20;
  all.push_back(enf);
  return all;
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string enforce_spec(const enforce::EnforcementPolicy& p) {
  return "flag-rate=" + fmt_double(p.flag_rate) +
         ",discount-rate=" + fmt_double(p.discount_rate) +
         ",block-rate=" + fmt_double(p.block_rate) +
         ",flag-min=" + std::to_string(p.flag_min_duplicates) +
         ",discount-min=" + std::to_string(p.discount_min_duplicates) +
         ",block-min=" + std::to_string(p.block_min_duplicates) +
         ",blatant-rate=" + fmt_double(p.blatant_rate) +
         ",blatant-min=" + std::to_string(p.blatant_min_duplicates) +
         ",demote-ratio=" + fmt_double(p.demote_ratio) +
         ",half-life-us=" + std::to_string(p.score_half_life_us) +
         ",ttl-us=" + std::to_string(p.block_ttl_us) +
         ",rate-alpha=" + fmt_double(p.rate_alpha) +
         ",min-clicks=" + std::to_string(p.min_clicks) +
         ",max-sources=" + std::to_string(p.max_sources);
}

// ---------------------------------------------------------------------------
// Generators. Fresh ids are fmix64 of a per-stream counter (a bijection,
// so never repeated within a run); replays copy a remembered original.

struct Original {
  std::uint32_t ad = 0;
  std::uint64_t id = 0;
  std::uint32_t source = 0;
  std::uint64_t index = 0;   ///< click index on the connection
  std::uint64_t ad_idx = 0;  ///< the ad's click count when it was sent
  std::uint64_t time = 0;
};

/// Bounded set of originals with random replacement once full, so the
/// replay distances spread over the window instead of clustering.
class OriginalRing {
 public:
  explicit OriginalRing(std::size_t cap) : cap_(cap) { ring_.reserve(cap); }
  void remember(const Original& o, stream::Rng& rng) {
    if (ring_.size() < cap_) {
      ring_.push_back(o);
    } else {
      ring_[rng.below(cap_)] = o;
    }
  }
  bool empty() const { return ring_.empty(); }
  const Original& pick(stream::Rng& rng) const {
    return ring_[rng.below(ring_.size())];
  }

 private:
  std::size_t cap_;
  std::vector<Original> ring_;
};

std::uint64_t stream_salt(std::uint64_t seed, std::uint32_t connection) {
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ull + connection;
  return hashing::splitmix64_next(s);
}

/// Pool workloads: each connection owns 16 ads (so per-ad verdicts do not
/// depend on how the two connections interleave); 20% of clicks replay an
/// original of the same ad within half its window.
class PoolTraffic final : public Traffic {
 public:
  PoolTraffic(const Workload& w, std::uint64_t seed, std::uint32_t conn)
      : rng_(stream_salt(seed, conn)),
        salt_(stream_salt(seed, conn + 1000)),
        base_ad_(conn * kAds),
        max_gap_(w.window_span / 2),
        ring_(std::size_t{1} << 16) {}

  void fill(std::size_t n, Columns& c, Label* labels) override {
    for (std::size_t i = 0; i < n; ++i) {
      std::uint32_t slot = static_cast<std::uint32_t>(rng_.below(kAds));
      std::int64_t original = -1;
      std::uint64_t id = 0;
      if (!ring_.empty() && rng_.chance(0.2)) {
        const Original& o = ring_.pick(rng_);
        if (ad_clicks_[o.ad] - o.ad_idx <= max_gap_) {
          slot = o.ad;
          id = o.id;
          original = static_cast<std::int64_t>(o.index);
        }
      }
      if (original < 0) {
        id = hashing::fmix64(salt_ ^ fresh_++);
        if (rng_.below(16) == 0) {
          ring_.remember({slot, id, 0, index_, ad_clicks_[slot], 0}, rng_);
        }
      }
      ++ad_clicks_[slot];
      c.ads[i] = base_ad_ + slot;
      c.ids[i] = id;
      c.times[i] = index_;
      c.sources[i] = 0;
      if (labels != nullptr) labels[i] = {original, original >= 0};
      ++index_;
    }
  }

 private:
  static constexpr std::uint32_t kAds = 16;
  stream::Rng rng_;
  std::uint64_t salt_;
  std::uint32_t base_ad_;
  std::uint64_t max_gap_;
  OriginalRing ring_;
  std::uint64_t ad_clicks_[kAds] = {};
  std::uint64_t fresh_ = 0;
  std::uint64_t index_ = 0;
};

/// Million-ad traffic after bench/multitenant_pool: 70% Zipf(1.1) over
/// 2^20 ads, 30% a round-robin sweep of all of them; 12% of clicks replay
/// an original within half the tail window (global clicks) and half the
/// hot window (the ad's own clicks), where the tiered pool guarantees
/// detection.
class TieredTraffic final : public Traffic {
 public:
  TieredTraffic(const Workload& w, std::uint64_t seed, std::uint32_t conn)
      : rng_(stream_salt(seed, conn)),
        salt_(stream_salt(seed, conn + 1000)),
        zipf_(kUniverse, 1.1),
        ad_clicks_(kUniverse, 0),
        max_global_gap_(w.tiered.tail_window_clicks / 2),
        max_ad_gap_(w.tiered.hot_window.length / 2),
        ring_(std::size_t{1} << 16) {}

  void fill(std::size_t n, Columns& c, Label* labels) override {
    for (std::size_t i = 0; i < n; ++i) {
      std::int64_t original = -1;
      std::uint32_t ad = 0;
      std::uint64_t id = 0;
      if (!ring_.empty() && rng_.chance(0.12)) {
        for (int probe = 0; probe < 4; ++probe) {
          const Original& o = ring_.pick(rng_);
          if (index_ - o.index <= max_global_gap_ &&
              ad_clicks_[o.ad] - o.ad_idx <= max_ad_gap_) {
            ad = o.ad;
            id = o.id;
            original = static_cast<std::int64_t>(o.index);
            break;
          }
        }
      }
      if (original < 0) {
        ad = rng_.chance(0.3)
                 ? static_cast<std::uint32_t>(sweep_++ % kUniverse)
                 : static_cast<std::uint32_t>(zipf_.sample(rng_));
        id = hashing::fmix64(salt_ ^ fresh_++);
        ring_.remember({ad, id, 0, index_, ad_clicks_[ad], 0}, rng_);
      }
      ++ad_clicks_[ad];
      c.ads[i] = ad;
      c.ids[i] = id;
      c.times[i] = index_;
      c.sources[i] = 0;
      if (labels != nullptr) labels[i] = {original, original >= 0};
      ++index_;
    }
  }

 private:
  static constexpr std::uint64_t kUniverse = std::uint64_t{1} << 20;
  stream::Rng rng_;
  std::uint64_t salt_;
  stream::ZipfSampler zipf_;
  std::vector<std::uint32_t> ad_clicks_;
  std::uint64_t max_global_gap_;
  std::uint64_t max_ad_gap_;
  OriginalRing ring_;
  std::uint64_t sweep_ = 0;
  std::uint64_t fresh_ = 0;
  std::uint64_t index_ = 0;
};

/// Enforcement traffic on one connection, clock 1 µs per click. Four
/// populations, each replaying its own originals within half the window:
///   botnet        45%  32 sources, ad 7, 95% replays  (attacker)
///   background    40%  Zipf(1.1) over 2,048 sources, 8 ads, 8% replays
///   NAT crowd     10%  one source, ad 2, 8% replays
///   low-and-slow   5%  4 sources, ad 3, 45% replays   (attacker)
class EnforceTraffic final : public Traffic {
 public:
  EnforceTraffic(const Workload& w, std::uint64_t seed, std::uint32_t conn)
      : rng_(stream_salt(seed, conn)),
        salt_(stream_salt(seed, conn + 1000)),
        honest_sources_(kHonestSources, 1.1),
        max_gap_(w.window_span / 2),
        rings_{OriginalRing(512), OriginalRing(std::size_t{1} << 16),
               OriginalRing(4096), OriginalRing(256)} {}

  void fill(std::size_t n, Columns& c, Label* labels) override {
    for (std::size_t i = 0; i < n; ++i) {
      ++time_;
      const double u = rng_.uniform();
      const int pop = u < 0.45 ? kBot : u < 0.85 ? kHonest : u < 0.95 ? kNat
                                                                       : kSlow;
      static constexpr double kReplay[] = {0.95, 0.08, 0.08, 0.45};
      OriginalRing& ring = rings_[pop];
      std::int64_t original = -1;
      Original click;
      if (!ring.empty() && rng_.chance(kReplay[pop])) {
        const Original& o = ring.pick(rng_);
        if (time_ - o.time <= max_gap_) {
          click = o;
          original = static_cast<std::int64_t>(o.index);
        }
      }
      if (original < 0) {
        switch (pop) {
          case kBot:
            click.source = 0x0a000000u | static_cast<std::uint32_t>(rng_.below(32));
            click.ad = 7;
            break;
          case kHonest:
            click.source = 0x64000000u | static_cast<std::uint32_t>(
                                             honest_sources_.sample(rng_));
            click.ad = static_cast<std::uint32_t>(rng_.below(8));
            break;
          case kNat:
            click.source = 0x0a0b0c0du;
            click.ad = 2;
            break;
          default:
            click.source = 0x0b000000u | static_cast<std::uint32_t>(rng_.below(4));
            click.ad = 3;
            break;
        }
        click.id = hashing::fmix64(salt_ ^ fresh_++);
        click.index = index_;
        click.time = time_;
        ring.remember(click, rng_);
      }
      c.ads[i] = click.ad;
      c.ids[i] = click.id;
      c.times[i] = time_;
      c.sources[i] = click.source;
      if (labels != nullptr) {
        labels[i] = {original, pop == kBot || pop == kSlow};
      }
      ++index_;
    }
  }

 private:
  enum { kBot, kHonest, kNat, kSlow };
  // 2,085 sources in all, within the ledger's 4,096-counter offender
  // summary: no tie ever picks an eviction victim there, so the known
  // tie-order defect of its restore (see StateMatch) can reorder the
  // follower's entries but not change which sources they hold.
  static constexpr std::uint64_t kHonestSources = 2048;
  stream::Rng rng_;
  std::uint64_t salt_;
  stream::ZipfSampler honest_sources_;
  std::uint64_t max_gap_;
  OriginalRing rings_[4];
  std::uint64_t fresh_ = 0;
  std::uint64_t index_ = 0;
  std::uint64_t time_ = 0;
};

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = make_workloads();
  return all;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

std::vector<std::string> daemon_flags(const Workload& w) {
  std::vector<std::string> f = {"--loops=" + std::to_string(w.loops)};
  if (w.kind == Kind::kTiered) {
    const server::TieredConfig& t = w.tiered;
    f.insert(f.end(),
             {"--sink=tiered", "--window=" + w.window,
              "--memory-cap-mib=" + std::to_string(t.memory_cap_bits >> 23),
              "--hot-fpr=" + fmt_double(t.hot_fpr),
              "--tail-window=" + std::to_string(t.tail_window_clicks),
              "--tail-fpr=" + fmt_double(t.tail_fpr),
              "--epoch=" + std::to_string(t.epoch_clicks),
              "--promote-share=" + fmt_double(t.promote_share),
              "--demote-share=" + fmt_double(t.demote_share)});
    return f;
  }
  const server::DetectorConfig& d = w.detector;
  f.insert(f.end(), {"--sink=pool", "--window=" + w.window,
                     "--memory-mib=" + std::to_string(d.memory_bits >> 23),
                     "--hashes=" + std::to_string(d.hashes),
                     "--shards=" + std::to_string(d.shards)});
  if (w.kind == Kind::kEnforce) f.push_back("--enforce=" + enforce_spec(w.policy));
  return f;
}

std::unique_ptr<Traffic> make_traffic(const Workload& w, std::uint64_t seed,
                                      std::uint32_t connection) {
  switch (w.kind) {
    case Kind::kPool:
      return std::make_unique<PoolTraffic>(w, seed, connection);
    case Kind::kTiered:
      return std::make_unique<TieredTraffic>(w, seed, connection);
    case Kind::kEnforce:
      return std::make_unique<EnforceTraffic>(w, seed, connection);
  }
  throw std::logic_error("unreachable workload kind");
}

SinkStack build_stack(const Workload& w, bool traced, Capture* capture) {
  SinkStack s;
  const auto push = [&s](std::unique_ptr<server::ClickSink> sink) {
    s.sinks.push_back(std::move(sink));
    s.top = s.sinks.back().get();
  };
  if (w.kind == Kind::kTiered) {
    s.tiered = server::build_tiered_pool(w.tiered);
    push(std::make_unique<server::TieredPoolSink>(*s.tiered));
  } else {
    const server::DetectorConfig cfg = w.detector;
    adnet::DetectorPool::Factory factory;
    if (!traced) {
      factory = [cfg](std::uint32_t) { return server::build_detector(cfg); };
    } else {
      // A copy of server::build_detector (src/server/server_config.hpp:123)
      // with a TimingDetector around every shard and around the whole; keep
      // the two in step. build_detector has no hook to wrap the detectors
      // it makes, so this copy goes once it gets one. The oracle comparison
      // proves the wrapping keeps verdicts bit-identical.
      factory = [cfg](std::uint32_t) -> std::unique_ptr<core::DuplicateDetector> {
        core::DetectorBudget budget;
        budget.hash_count = cfg.hashes;
        budget.backend = cfg.backend;
        std::unique_ptr<core::DuplicateDetector> d;
        if (cfg.shards <= 1) {
          budget.total_memory_bits = cfg.memory_bits;
          d = std::make_unique<TimingDetector>(
              core::make_detector(cfg.window, budget), kDetectorInner);
        } else {
          budget.total_memory_bits = cfg.memory_bits / cfg.shards;
          core::WindowSpec shard_window = cfg.window;
          if (shard_window.basis == core::WindowBasis::kCount) {
            shard_window.length =
                std::max<std::uint64_t>(1, shard_window.length / cfg.shards);
          }
          core::ShardedDetector::Options opts;
          opts.threads = cfg.owners;
          opts.engine = cfg.engine;
          d = std::make_unique<core::ShardedDetector>(
              cfg.shards,
              [&](std::size_t) {
                return std::make_unique<TimingDetector>(
                    core::make_detector(shard_window, budget), kDetectorInner);
              },
              opts);
        }
        return std::make_unique<TimingDetector>(std::move(d), kDetectorOuter);
      };
    }
    s.pool = std::make_unique<adnet::DetectorPool>(factory);
    push(std::make_unique<server::PoolSink>(*s.pool, nullptr,
                                            /*concurrent_detectors=*/cfg.shards > 1));
  }
  if (traced) push(std::make_unique<TimingSink>(*s.top, kEnforceInner));
  if (w.kind == Kind::kEnforce) {
    s.ledger = std::make_unique<enforce::ReputationLedger>(w.policy);
    auto enforcing = std::make_unique<server::EnforcingSink>(*s.top, *s.ledger);
    s.enforcing = enforcing.get();
    push(std::move(enforcing));
  }
  if (traced) push(std::make_unique<TimingSink>(*s.top, kSinkLayer, capture));
  return s;
}

}  // namespace e2e
