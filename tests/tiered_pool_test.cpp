// Tests for the adaptive TieredDetectorPool: open admission under a fixed
// memory cap, SpaceSaving-driven promotion/demotion, the zero-FN tier-move
// guarantee, and snapshot round trips that preserve tier membership.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "adnet/tiered_detector_pool.hpp"
#include "hashing/fnv.hpp"
#include "stream/rng.hpp"
#include "stream/zipf.hpp"

namespace ppc::adnet {
namespace {

TieredPoolOptions small_opts() {
  TieredPoolOptions opts;
  opts.memory_cap_bits = std::size_t{1} << 27;
  opts.hot_window = core::WindowSpec::sliding_count(256);
  opts.hot_target_fpr = 1e-4;
  opts.tail_window_clicks = std::uint64_t{1} << 17;
  opts.tail_target_fpr = 1e-3;
  opts.hh_capacity = 64;
  opts.epoch_clicks = 1 << 12;
  return opts;
}

TEST(TieredPool, RejectsNonsenseOptions) {
  TieredPoolOptions opts = small_opts();
  opts.hot_target_fpr = 0.0;
  EXPECT_THROW(TieredDetectorPool{opts}, std::invalid_argument);
  opts = small_opts();
  opts.tail_target_fpr = 1.0;
  EXPECT_THROW(TieredDetectorPool{opts}, std::invalid_argument);
  opts = small_opts();
  opts.demote_share = opts.promote_share;  // no hysteresis band
  EXPECT_THROW(TieredDetectorPool{opts}, std::invalid_argument);
  opts = small_opts();
  opts.memory_cap_bits = 8;  // tail alone cannot fit
  EXPECT_THROW(TieredDetectorPool{opts}, std::invalid_argument);
}

TEST(TieredPool, FirstSeenAdsNeverThrow) {
  // The scenario that kills DetectorPool: an open ad population far larger
  // than any per-ad budget. Every first-seen ad lands in the shared tail.
  TieredDetectorPool pool(small_opts());
  const std::size_t base = pool.memory_bits();
  for (std::uint32_t ad = 0; ad < 50'000; ++ad) {
    EXPECT_FALSE(pool.offer(ad, 1'000'000 + ad, ad));
  }
  EXPECT_EQ(pool.memory_bits(), base) << "tail-resident ads must cost nothing";
  EXPECT_LE(pool.memory_bits(), pool.memory_cap_bits());
  EXPECT_EQ(pool.stats().hot_ads, 0u);
  EXPECT_EQ(pool.stats().clicks, 50'000u);
}

TEST(TieredPool, TailDetectsDuplicatesPerAd) {
  TieredDetectorPool pool(small_opts());
  // Same identifier on two ads: composite keying keeps them distinct.
  EXPECT_FALSE(pool.offer(1, 42, 0));
  EXPECT_FALSE(pool.offer(2, 42, 1));
  EXPECT_TRUE(pool.offer(1, 42, 2));
  EXPECT_TRUE(pool.offer(2, 42, 3));
  EXPECT_EQ(pool.stats().tail_duplicates, 2u);
}

TEST(TieredPool, PromotesHeavyHitterIntoHotTier) {
  TieredDetectorPool pool(small_opts());
  stream::Rng rng(7);
  std::uint64_t fresh = 1'000'000;
  // Ad 9 carries half the stream; the rest is spread over 10k cold ads.
  for (int i = 0; i < 3 * (1 << 12); ++i) {
    const std::uint32_t ad =
        rng.chance(0.5) ? 9 : 100 + static_cast<std::uint32_t>(rng.below(10'000));
    pool.offer(ad, fresh++, static_cast<std::uint64_t>(i));
  }
  EXPECT_TRUE(pool.ad_is_hot(9));
  const TierStats st = pool.stats();
  EXPECT_GE(st.promotions, 1u);
  EXPECT_GE(st.hot_ads, 1u);
  EXPECT_GT(st.hot_memory_bits, 0u);
  EXPECT_LE(st.memory_bits, st.memory_cap_bits);
  // The hot detector serves ad 9's window now.
  EXPECT_FALSE(pool.offer(9, 424242, 1 << 20));
  EXPECT_TRUE(pool.offer(9, 424242, (1 << 20) + 1));
}

// The time-basis handover grace is [promotion, promotion + hot window):
// inside it the tail's verdict counts, from its end on the tail's verdict
// is ignored (DESIGN.md "Tier moves"). A click only the tail holds — the
// original was offered before its ad was promoted — therefore reads as a
// duplicate one microsecond before the grace ends, and as fresh at the end
// itself, where the new hot detector has never seen it.
TEST(TieredPool, TimeGraceEndsOneHotWindowAfterPromotion) {
  TieredPoolOptions opts = small_opts();
  opts.hot_window = core::WindowSpec::sliding_time(2048, 1);
  opts.epoch_clicks = 256;
  constexpr std::uint32_t kAd = 9;
  constexpr core::ClickId kOriginal = 0xbeef;
  // Each replay gets its own pool, so the first replay cannot seed the
  // hot detector for the second.
  const auto replay_at = [&](std::uint64_t t) {
    TieredDetectorPool pool(opts);
    // One epoch of kAd alone: the first click is the original, and the
    // epoch-closing click at time epoch_clicks - 1 promotes kAd.
    EXPECT_FALSE(pool.offer(kAd, kOriginal, 0));
    for (std::uint64_t i = 1; i < opts.epoch_clicks; ++i) {
      pool.offer(kAd, 1'000 + i, i);
    }
    EXPECT_TRUE(pool.ad_is_hot(kAd));
    return pool.offer(kAd, kOriginal, t);
  };
  const std::uint64_t grace_until =
      (opts.epoch_clicks - 1) + opts.hot_window.length;
  EXPECT_TRUE(replay_at(grace_until - 1))
      << "inside the grace the tail's verdict counts";
  EXPECT_FALSE(replay_at(grace_until))
      << "after the grace the tail's verdict is ignored";
}

TEST(TieredPool, FullBudgetDefersPromotionInsteadOfThrowing) {
  // Cap leaves no headroom above the tail: the promotion loop must defer
  // (and count it) while clicks keep flowing through the tail.
  TieredPoolOptions opts = small_opts();
  const std::size_t tail_bits = TieredDetectorPool(opts).memory_bits();
  opts.memory_cap_bits = tail_bits + 100;  // < any hot detector
  TieredDetectorPool pool(opts);
  std::uint64_t fresh = 1'000'000;
  for (int i = 0; i < 3 * (1 << 12); ++i) {
    ASSERT_NO_THROW(pool.offer(5, fresh++, static_cast<std::uint64_t>(i)));
  }
  const TierStats st = pool.stats();
  EXPECT_FALSE(pool.ad_is_hot(5));
  EXPECT_GE(st.promotion_deferrals, 1u);
  EXPECT_EQ(st.promotions, 0u);
  EXPECT_LE(st.memory_bits, opts.memory_cap_bits);
  // Duplicate detection still works from the tail.
  EXPECT_TRUE(pool.offer(5, fresh - 1, 1 << 20));
}

TEST(TieredPool, BatchMatchesScalarReplay) {
  // offer_batch must be verdict-for-verdict identical to an offer() loop:
  // maintenance epochs land on the same click boundaries either way.
  TieredPoolOptions opts = small_opts();
  opts.epoch_clicks = 1 << 10;
  TieredDetectorPool scalar_pool(opts);
  TieredDetectorPool batch_pool(opts);

  constexpr std::size_t kClicks = 20'000;
  std::vector<std::uint32_t> ads(kClicks);
  std::vector<core::ClickId> ids(kClicks);
  std::vector<std::uint64_t> times(kClicks);
  stream::Rng rng(11);
  std::uint64_t fresh = 1;
  std::vector<core::ClickId> recent;
  for (std::size_t i = 0; i < kClicks; ++i) {
    ads[i] = rng.chance(0.4) ? 3 : static_cast<std::uint32_t>(rng.below(500));
    if (!recent.empty() && rng.chance(0.2)) {
      ids[i] = recent[rng.below(recent.size())];
    } else {
      ids[i] = fresh++;
      if (recent.size() < 256) recent.push_back(ids[i]);
    }
    times[i] = i;
  }

  std::vector<bool> scalar_out(kClicks);
  for (std::size_t i = 0; i < kClicks; ++i) {
    scalar_out[i] = scalar_pool.offer(ads[i], ids[i], times[i]);
  }
  std::vector<char> batch_out_raw(kClicks);
  const std::span<bool> batch_out(
      reinterpret_cast<bool*>(batch_out_raw.data()), kClicks);
  for (std::size_t off = 0; off < kClicks; off += 999) {
    const std::size_t len = std::min<std::size_t>(999, kClicks - off);
    batch_pool.offer_batch(
        std::span<const std::uint32_t>(ads).subspan(off, len),
        std::span<const core::ClickId>(ids).subspan(off, len),
        std::span<const std::uint64_t>(times).subspan(off, len),
        batch_out.subspan(off, len));
  }
  for (std::size_t i = 0; i < kClicks; ++i) {
    ASSERT_EQ(scalar_out[i], batch_out[i]) << "verdict diverged at click " << i;
  }
  const TierStats a = scalar_pool.stats();
  const TierStats b = batch_pool.stats();
  EXPECT_EQ(a.duplicates, b.duplicates);
  EXPECT_EQ(a.promotions, b.promotions);
  EXPECT_EQ(a.demotions, b.demotions);
  EXPECT_EQ(a.hot_ads, b.hot_ads);
}

// The tentpole property: a Zipf stream whose hotset SHIFTS between phases,
// so ads are promoted, go cold, and are demoted while duplicates keep
// arriving. Every injected duplicate lies within its ad's window AND within
// the tail window of its original, so per the tier-move guarantee (header
// comment / DESIGN.md "Tier moves") the pool must flag every single one —
// zero false negatives across promotions, grace handovers and demotions.
TEST(TieredPool, ZeroFalseNegativesAcrossShiftingHotsetChurn) {
  TieredPoolOptions opts = small_opts();  // tail window 2^17 > whole stream
  TieredDetectorPool pool(opts);
  stream::Rng rng(13);
  stream::ZipfSampler zipf(4'000, 1.1);

  constexpr int kPhases = 3;
  constexpr int kPhaseClicks = 40'000;
  struct Original {
    core::ClickId id;
    std::uint64_t ad_click_idx;  // the ad's click counter at (re)insertion
  };
  std::unordered_map<std::uint32_t, std::vector<Original>> recent;
  std::unordered_map<std::uint32_t, std::uint64_t> ad_clicks;
  std::uint64_t fresh = std::uint64_t{1} << 40;
  std::uint64_t t = 0;
  std::uint64_t false_negatives = 0, false_positives = 0, dup_checked = 0,
                 fresh_checked = 0;

  for (int phase = 0; phase < kPhases; ++phase) {
    for (int i = 0; i < kPhaseClicks; ++i, ++t) {
      // Phase p's hotset is 8 dedicated ads; it shifts every phase so the
      // previous hotset goes cold and must be demoted.
      std::uint32_t ad;
      if (rng.chance(0.6)) {
        ad = static_cast<std::uint32_t>(phase * 100 + rng.below(8));
      } else {
        ad = 10'000 + static_cast<std::uint32_t>(zipf.sample(rng));
      }
      std::uint64_t& clicks_of_ad = ad_clicks[ad];
      std::vector<Original>& ring = recent[ad];

      // Try to replay a recent original of this ad: gap <= 100 ad-clicks
      // from the INSERTION keeps it comfortably inside the sliding-256 hot
      // window. A flagged duplicate is not re-stamped by the filters, so
      // the gap always measures from the original insertion, never from an
      // earlier replay.
      const Original* dup = nullptr;
      if (rng.chance(0.15)) {
        for (const Original& o : ring) {
          if (clicks_of_ad - o.ad_click_idx <= 100) {
            dup = &o;
            break;
          }
        }
      }
      if (dup != nullptr) {
        const bool verdict = pool.offer(ad, dup->id, t);
        ++dup_checked;
        if (!verdict) ++false_negatives;
      } else {
        const core::ClickId id = fresh++;
        const bool verdict = pool.offer(ad, id, t);
        ++fresh_checked;
        if (verdict) {
          // A false positive: the click was NOT inserted (flagged clicks
          // never are), so it must not enter the replay ring — replaying
          // it would manufacture a phantom false negative.
          ++false_positives;
        } else if (ring.size() < 8) {
          ring.push_back({id, clicks_of_ad});
        } else {
          ring[rng.below(ring.size())] = {id, clicks_of_ad};
        }
      }
      ++clicks_of_ad;
    }
  }

  EXPECT_EQ(false_negatives, 0u)
      << "of " << dup_checked << " in-window duplicates";
  EXPECT_GT(dup_checked, 5'000u);  // the stream actually exercised the claim
  // Churn actually happened: phase hotsets were promoted and later demoted.
  const TierStats st = pool.stats();
  EXPECT_GE(st.promotions, 8u);
  EXPECT_GE(st.demotions, 8u);
  EXPECT_TRUE(pool.ad_is_hot(200)) << "final phase's hotset should be hot";
  EXPECT_FALSE(pool.ad_is_hot(0)) << "phase 0's hotset should be demoted";
  EXPECT_LE(st.memory_bits, st.memory_cap_bits);
  EXPECT_EQ(st.clicks, static_cast<std::uint64_t>(kPhases) * kPhaseClicks);
  EXPECT_EQ(st.hot_clicks + st.tail_clicks, st.clicks);
  EXPECT_EQ(st.hot_duplicates + st.tail_duplicates, st.duplicates);
  // Loose FP sanity: targets are 1e-3 (tail) / 1e-4 (hot); 1% is far out.
  EXPECT_LT(static_cast<double>(false_positives),
            0.01 * static_cast<double>(fresh_checked));
}

TEST(TieredPool, SnapshotRoundTripPreservesTiersAndVerdicts) {
  TieredPoolOptions opts = small_opts();
  opts.epoch_clicks = 1 << 11;
  TieredDetectorPool pool(opts);
  stream::Rng rng(17);
  std::uint64_t fresh = 1'000'000;
  std::vector<std::pair<std::uint32_t, core::ClickId>> originals;
  std::uint64_t t = 0;
  for (int i = 0; i < 30'000; ++i, ++t) {
    const std::uint32_t ad =
        rng.chance(0.5) ? static_cast<std::uint32_t>(1 + rng.below(4))
                        : 100 + static_cast<std::uint32_t>(rng.below(2'000));
    const core::ClickId id = fresh++;
    pool.offer(ad, id, t);
    if (i >= 29'000) originals.emplace_back(ad, id);  // recent, in-window
  }
  ASSERT_GT(pool.stats().hot_ads, 0u);

  std::stringstream snap(std::ios::binary | std::ios::in | std::ios::out);
  pool.save(snap);

  TieredDetectorPool restored(opts);
  restored.restore(snap);

  // Tier membership, counters and memory metering all survive.
  const TierStats a = pool.stats();
  const TierStats b = restored.stats();
  EXPECT_EQ(a.clicks, b.clicks);
  EXPECT_EQ(a.duplicates, b.duplicates);
  EXPECT_EQ(a.hot_ads, b.hot_ads);
  EXPECT_EQ(a.promotions, b.promotions);
  EXPECT_EQ(a.demotions, b.demotions);
  EXPECT_EQ(a.memory_bits, b.memory_bits);
  for (std::uint32_t ad = 1; ad <= 4; ++ad) {
    EXPECT_EQ(pool.ad_is_hot(ad), restored.ad_is_hot(ad)) << "ad " << ad;
  }

  // Verdict continuity: duplicates of pre-snapshot originals are flagged by
  // BOTH pools, and a fresh continuation stream gets identical verdicts.
  for (const auto& [ad, id] : originals) {
    EXPECT_TRUE(pool.offer(ad, id, t));
    EXPECT_TRUE(restored.offer(ad, id, t));
    ++t;
  }
  for (int i = 0; i < 10'000; ++i, ++t) {
    const std::uint32_t ad =
        rng.chance(0.5) ? static_cast<std::uint32_t>(1 + rng.below(4))
                        : 100 + static_cast<std::uint32_t>(rng.below(2'000));
    const core::ClickId id = rng.chance(0.3) ? fresh - 1 - rng.below(200)
                                             : fresh++;
    ASSERT_EQ(pool.offer(ad, id, t), restored.offer(ad, id, t))
        << "continuation diverged at click " << i;
  }
}

// A stream whose hotset shifts every quarter (so promotions, handover
// graces and demotions all happen), with ~30% replays of recent clicks and
// non-decreasing times that advance ~1 us per click.
struct ClickStream {
  std::vector<std::uint32_t> ads;
  std::vector<core::ClickId> ids;
  std::vector<std::uint64_t> times;
};

ClickStream churn_stream(std::size_t n, std::uint64_t seed) {
  ClickStream s;
  stream::Rng rng(seed);
  std::uint64_t fresh = std::uint64_t{1} << 40;
  std::uint64_t t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t phase = 4 * i / n;
    std::uint32_t ad;
    core::ClickId id;
    if (i > 0 && rng.chance(0.3)) {
      const std::size_t j = i - 1 - rng.below(std::min<std::size_t>(i, 2000));
      ad = s.ads[j];
      id = s.ids[j];
    } else {
      ad = rng.chance(0.6)
               ? static_cast<std::uint32_t>(phase * 100 + rng.below(6))
               : 1000 + static_cast<std::uint32_t>(rng.below(3000));
      id = fresh++;
    }
    t += rng.below(3);
    s.ads.push_back(ad);
    s.ids.push_back(id);
    s.times.push_back(t);
  }
  return s;
}

std::string saved(const TieredDetectorPool& pool) {
  std::ostringstream out(std::ios::binary);
  pool.save(out);
  return out.str();
}

void expect_same_stats(const TierStats& a, const TierStats& b) {
  EXPECT_EQ(a.clicks, b.clicks);
  EXPECT_EQ(a.duplicates, b.duplicates);
  EXPECT_EQ(a.hot_clicks, b.hot_clicks);
  EXPECT_EQ(a.hot_duplicates, b.hot_duplicates);
  EXPECT_EQ(a.tail_clicks, b.tail_clicks);
  EXPECT_EQ(a.tail_duplicates, b.tail_duplicates);
  EXPECT_EQ(a.hot_ads, b.hot_ads);
  EXPECT_EQ(a.hot_memory_bits, b.hot_memory_bits);
  EXPECT_EQ(a.tail_memory_bits, b.tail_memory_bits);
  EXPECT_EQ(a.memory_bits, b.memory_bits);
  EXPECT_EQ(a.memory_cap_bits, b.memory_cap_bits);
  EXPECT_EQ(a.promotions, b.promotions);
  EXPECT_EQ(a.demotions, b.demotions);
  EXPECT_EQ(a.promotion_deferrals, b.promotion_deferrals);
  EXPECT_EQ(a.hot_target_fpr, b.hot_target_fpr);
  EXPECT_EQ(a.tail_target_fpr, b.tail_target_fpr);
}

// Batched routing must be invisible: any re-chunking of a stream — chunks
// of 1 to 4,096 clicks, most straddling several maintenance epochs, through
// both offer_batch overloads and scalar offer(), with a snapshot/restore
// into a fresh pool in mid-stream — gives the verdicts, TierStats and
// save() bytes of a scalar offer() replay.
TEST(TieredPool, RechunkedReplayMatchesScalarReplay) {
  for (const bool time_basis : {false, true}) {
    TieredPoolOptions opts = small_opts();
    opts.epoch_clicks = 1000;  // far below the largest chunk
    if (time_basis) opts.hot_window = core::WindowSpec::sliding_time(2048, 1);
    const ClickStream s = churn_stream(40'000, time_basis ? 31 : 37);
    const std::size_t n = s.ids.size();

    for (std::uint64_t trial = 0; trial < 3; ++trial) {
      SCOPED_TRACE(testing::Message() << (time_basis ? "time" : "count")
                                      << " basis, trial " << trial);
      stream::Rng rng(100 + trial);
      // Chunk sizes log-uniform over [1, 4096]; kind 0 = per-click times,
      // 1 = one shared time (the chunk's last), 2 = scalar offer() loop.
      struct Chunk {
        std::size_t begin, len;
        int kind;
      };
      std::vector<Chunk> chunks;
      for (std::size_t at = 0; at < n;) {
        const std::size_t len = std::min<std::size_t>(
            n - at, 1 + rng.below(std::uint64_t{1} << rng.below(13)));
        chunks.push_back({at, len, static_cast<int>(rng.below(3))});
        at += len;
      }
      const std::size_t restore_at = chunks.size() / 2;

      // The scalar reference sees each click at the time the batch gave it.
      std::vector<std::uint64_t> when = s.times;
      for (const Chunk& c : chunks) {
        if (c.kind != 1) continue;
        for (std::size_t i = c.begin; i < c.begin + c.len; ++i) {
          when[i] = s.times[c.begin + c.len - 1];
        }
      }
      TieredDetectorPool reference(opts);
      std::vector<char> expected(n);
      for (std::size_t i = 0; i < n; ++i) {
        expected[i] = reference.offer(s.ads[i], s.ids[i], when[i]) ? 1 : 0;
      }
      ASSERT_GT(reference.stats().promotions, 0u);
      ASSERT_GT(reference.stats().demotions, 0u);

      auto pool = std::make_unique<TieredDetectorPool>(opts);
      std::vector<char> got_raw(n);
      const std::span<bool> got(reinterpret_cast<bool*>(got_raw.data()), n);
      for (std::size_t c = 0; c < chunks.size(); ++c) {
        if (c == restore_at) {
          std::istringstream snap(saved(*pool), std::ios::binary);
          pool = std::make_unique<TieredDetectorPool>(opts);
          pool->restore(snap);
        }
        const auto [begin, len, kind] = chunks[c];
        const auto ads =
            std::span<const std::uint32_t>(s.ads).subspan(begin, len);
        const auto ids =
            std::span<const core::ClickId>(s.ids).subspan(begin, len);
        const auto times =
            std::span<const std::uint64_t>(s.times).subspan(begin, len);
        if (kind == 0) {
          pool->offer_batch(ads, ids, times, got.subspan(begin, len));
        } else if (kind == 1) {
          pool->offer_batch(ads, ids, got.subspan(begin, len),
                            s.times[begin + len - 1]);
        } else {
          for (std::size_t i = begin; i < begin + len; ++i) {
            got[i] = pool->offer(s.ads[i], s.ids[i], s.times[i]);
          }
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], expected[i] != 0)
            << "verdict diverged at click " << i;
      }
      expect_same_stats(pool->stats(), reference.stats());
      EXPECT_EQ(saved(*pool), saved(reference));
    }
  }
}

// Pins the verdicts and snapshot bytes of one churn stream, recorded when
// the pool still routed every click alone. The re-chunking test above
// compares batched routes with the scalar one, which now share the same
// code; this one holds both to the old per-click results, so a defect the
// two share — in grace accounting, in the hot tier's compaction and
// re-indexing on demotion, or in deferral — moves a digest. The time-basis
// case caps the hot tier at four ads so that promotions are deferred.
TEST(TieredPool, ChurnStreamMatchesRecordedDigests) {
  struct Case {
    const char* name;
    bool time_basis;
    std::size_t max_hot_ads;
    std::uint64_t verdict_digest;
    std::uint64_t snapshot_digest;
  };
  for (const Case& c :
       {Case{"count basis", false, 0, 0x80d2af3b0806a210ULL,
             0x5450df08d30296cdULL},
        Case{"time basis, capped", true, 4, 0xf7e54b662207201bULL,
             0x2a8d24c9b32ab1c4ULL}}) {
    SCOPED_TRACE(c.name);
    TieredPoolOptions opts = small_opts();
    opts.epoch_clicks = 1000;
    opts.max_hot_ads = c.max_hot_ads;
    if (c.time_basis) opts.hot_window = core::WindowSpec::sliding_time(2048, 1);
    const ClickStream s = churn_stream(60'000, 43);
    const std::size_t n = s.ids.size();

    // Log-uniform chunks of 1 to 4,096 clicks, each through per-click
    // times, one shared time (the chunk's last) or a scalar offer() loop.
    TieredDetectorPool pool(opts);
    stream::Rng rng(0x71e2);
    std::string verdicts(n, '\0');
    std::vector<char> out_raw(4096);
    const std::span<bool> out(reinterpret_cast<bool*>(out_raw.data()),
                              out_raw.size());
    for (std::size_t at = 0; at < n;) {
      const std::size_t len = std::min<std::size_t>(
          n - at, 1 + rng.below(std::uint64_t{1} << rng.below(13)));
      const auto ads = std::span<const std::uint32_t>(s.ads).subspan(at, len);
      const auto ids = std::span<const core::ClickId>(s.ids).subspan(at, len);
      switch (rng.below(3)) {
        case 0:
          pool.offer_batch(
              ads, ids,
              std::span<const std::uint64_t>(s.times).subspan(at, len),
              out.first(len));
          break;
        case 1:
          pool.offer_batch(ads, ids, out.first(len), s.times[at + len - 1]);
          break;
        default:
          for (std::size_t i = 0; i < len; ++i) {
            out[i] = pool.offer(ads[i], ids[i], s.times[at + i]);
          }
      }
      for (std::size_t i = 0; i < len; ++i) verdicts[at + i] = out[i] ? 1 : 0;
      at += len;
    }
    const TierStats st = pool.stats();
    EXPECT_GT(st.promotions, 0u);
    EXPECT_GT(st.demotions, 0u);
    if (c.max_hot_ads != 0) {
      EXPECT_GT(st.promotion_deferrals, 0u);
    }
    EXPECT_EQ(hashing::fnv1a64(verdicts), c.verdict_digest);
    EXPECT_EQ(hashing::fnv1a64(saved(pool)), c.snapshot_digest);
  }
}

// One thread offers batches while another reads stats() and takes
// snapshots. Every call holds the pool mutex for its whole duration, so the
// per-pool routing buffers are never shared, verdicts match a sequential
// replay, and each snapshot lands on a batch boundary.
TEST(TieredPool, ConcurrentOffersStatsAndSaves) {
  TieredPoolOptions opts = small_opts();
  opts.epoch_clicks = 1000;
  const ClickStream s = churn_stream(20'000, 41);
  const std::size_t n = s.ids.size();
  constexpr std::size_t kBatch = 700;

  TieredDetectorPool reference(opts);
  std::vector<char> expected(n);
  for (std::size_t i = 0; i < n; ++i) {
    expected[i] = reference.offer(s.ads[i], s.ids[i], s.times[i]) ? 1 : 0;
  }

  TieredDetectorPool pool(opts);
  std::vector<char> got_raw(n);
  const std::span<bool> got(reinterpret_cast<bool*>(got_raw.data()), n);
  std::atomic<bool> done{false};
  std::vector<std::string> snapshots;
  std::thread reader([&] {
    while (!done.load()) {
      const TierStats st = pool.stats();
      EXPECT_EQ(st.hot_clicks + st.tail_clicks, st.clicks);
      if (snapshots.size() < 8) snapshots.push_back(saved(pool));
    }
  });
  std::thread writer([&] {
    for (std::size_t at = 0; at < n; at += kBatch) {
      const std::size_t len = std::min(kBatch, n - at);
      pool.offer_batch(std::span<const std::uint32_t>(s.ads).subspan(at, len),
                       std::span<const core::ClickId>(s.ids).subspan(at, len),
                       std::span<const std::uint64_t>(s.times).subspan(at, len),
                       got.subspan(at, len));
    }
  });
  writer.join();
  done.store(true);
  reader.join();

  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(got[i], expected[i] != 0) << "verdict diverged at click " << i;
  }
  EXPECT_EQ(saved(pool), saved(reference));
  for (const std::string& snap : snapshots) {
    TieredDetectorPool restored(opts);
    std::istringstream in(snap, std::ios::binary);
    restored.restore(in);
    const std::uint64_t clicks = restored.stats().clicks;
    EXPECT_TRUE(clicks % kBatch == 0 || clicks == n)
        << "snapshot cut a batch at click " << clicks;
  }
}

TEST(TieredPool, RestoreRejectsMismatchedOptions) {
  TieredDetectorPool pool(small_opts());
  pool.offer(1, 1, 0);
  std::stringstream snap(std::ios::binary | std::ios::in | std::ios::out);
  pool.save(snap);

  TieredPoolOptions other = small_opts();
  other.hot_window = core::WindowSpec::sliding_count(512);
  TieredDetectorPool mismatched(other);
  EXPECT_THROW(mismatched.restore(snap), std::runtime_error);
}

TEST(TieredPool, RestoreRejectsCorruptPayload) {
  TieredDetectorPool pool(small_opts());
  pool.offer(1, 1, 0);
  std::stringstream snap(std::ios::binary | std::ios::in | std::ios::out);
  pool.save(snap);
  std::string bytes = snap.str();
  bytes[bytes.size() / 2] ^= 0x5a;  // flip a payload bit: CRC must catch it
  std::istringstream corrupt(bytes, std::ios::binary);
  TieredDetectorPool target(small_opts());
  EXPECT_THROW(target.restore(corrupt), std::runtime_error);
}

}  // namespace
}  // namespace ppc::adnet
