#include "adnet/tiered_detector_pool.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/sizing.hpp"
#include "core/snapshot_io.hpp"

namespace ppc::adnet {

namespace {

/// Sanity cap on restored hot ads, mirroring DetectorPool::kMaxSnapshotAds.
constexpr std::uint64_t kMaxSnapshotHotAds = std::uint64_t{1} << 20;

constexpr std::uint32_t kTailAd = bits::FlatIndex::kNone;

std::span<bool> as_bools(std::vector<char>& bytes, std::size_t n) {
  if (bytes.size() < n) bytes.resize(n);
  return {reinterpret_cast<bool*>(bytes.data()), n};
}

}  // namespace

TieredDetectorPool::TieredDetectorPool(Options opts)
    : opts_(opts), hh_(opts.hh_capacity) {
  opts_.hot_window.validate();
  if (!(opts_.hot_target_fpr > 0.0 && opts_.hot_target_fpr < 1.0) ||
      !(opts_.tail_target_fpr > 0.0 && opts_.tail_target_fpr < 1.0)) {
    throw std::invalid_argument(
        "TieredDetectorPool: FP targets must be in (0, 1)");
  }
  if (opts_.tail_window_clicks == 0 || opts_.epoch_clicks == 0) {
    throw std::invalid_argument(
        "TieredDetectorPool: tail_window_clicks and epoch_clicks must be "
        ">= 1");
  }
  if (!(opts_.promote_share > opts_.demote_share)) {
    throw std::invalid_argument(
        "TieredDetectorPool: promote_share must exceed demote_share (the "
        "gap is the tier-thrash hysteresis)");
  }
  const analysis::BudgetPlan plan = analysis::plan_budget(
      core::WindowSpec::sliding_count(opts_.tail_window_clicks),
      opts_.tail_target_fpr);
  core::DetectorBudget budget;
  budget.total_memory_bits = plan.total_memory_bits;
  budget.hash_count = plan.hash_count;
  budget.seed = opts_.seed;
  tail_ = core::make_detector(
      core::WindowSpec::sliding_count(opts_.tail_window_clicks), budget);
  memory_bits_ = tail_->memory_bits();
  if (memory_bits_ > opts_.memory_cap_bits) {
    throw std::invalid_argument(
        "TieredDetectorPool: tail detector alone needs " +
        std::to_string(memory_bits_) + " bits, over the " +
        std::to_string(opts_.memory_cap_bits) +
        "-bit cap — shrink tail_window_clicks or relax tail_target_fpr");
  }
}

std::uint64_t TieredDetectorPool::sized_n_for(std::uint64_t observed) const {
  if (opts_.hot_window.basis == core::WindowBasis::kCount) {
    return opts_.hot_window.length;  // capacity is the window itself
  }
  // Time basis: scale the epoch observation to clicks-per-window-span.
  const std::uint64_t elapsed = last_time_us_ - epoch_start_time_us_;
  if (elapsed == 0) return std::max<std::uint64_t>(observed, 1);
  const double per_span = static_cast<double>(observed) *
                          static_cast<double>(opts_.hot_window.length) /
                          static_cast<double>(elapsed);
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(per_span) + 1);
}

std::unique_ptr<core::DuplicateDetector> TieredDetectorPool::build_hot_detector(
    std::uint64_t sized_n) const {
  const analysis::BudgetPlan plan = analysis::plan_budget(
      opts_.hot_window, opts_.hot_target_fpr,
      opts_.hot_window.basis == core::WindowBasis::kTime ? sized_n : 0);
  core::DetectorBudget budget;
  budget.total_memory_bits = plan.total_memory_bits;
  budget.hash_count = plan.hash_count;
  budget.seed = opts_.seed;
  return core::make_detector(opts_.hot_window, budget);
}

bool TieredDetectorPool::promote_locked(std::uint32_t ad,
                                        std::uint64_t observed) {
  if (opts_.max_hot_ads != 0 && hot_.size() >= opts_.max_hot_ads) {
    ++promotion_deferrals_;
    return false;
  }
  const std::uint64_t sized_n = sized_n_for(observed);
  auto detector = build_hot_detector(sized_n);
  const std::size_t mem = detector->memory_bits();
  if (memory_bits_ + mem > opts_.memory_cap_bits) {
    ++promotion_deferrals_;  // budget full: the ad stays in the tail
    return false;
  }
  HotEntry entry;
  entry.ad = ad;
  entry.detector = std::move(detector);
  entry.sized_n = sized_n;
  if (opts_.hot_window.basis == core::WindowBasis::kCount) {
    entry.grace_left = opts_.hot_window.length;
  } else {
    entry.grace_until_us = last_time_us_ + opts_.hot_window.length;
  }
  entry.memory_bits = mem;
  hot_index_.insert(ad, static_cast<std::uint32_t>(hot_.size()));
  hot_.push_back(std::move(entry));
  memory_bits_ += mem;
  ++promotions_;
  return true;
}

void TieredDetectorPool::maintain_locked() {
  const std::uint64_t epoch_len = epoch_clicks_seen_;
  if (epoch_len == 0) return;

  // Demotions first: they free budget the promotions below can spend, and
  // an ad promoted in THIS pass (epoch_count == 0 until next epoch) must
  // not be demoted by the same scan that created it.
  const double demote_floor =
      opts_.demote_share * static_cast<double>(epoch_len);
  std::size_t kept = 0;
  for (std::size_t h = 0; h < hot_.size(); ++h) {
    if (static_cast<double>(hot_[h].epoch_count) < demote_floor) {
      memory_bits_ -= hot_[h].memory_bits;
      ++demotions_;
      continue;  // tail shadow keeps its recent originals
    }
    hot_[h].epoch_count = 0;
    if (kept != h) hot_[kept] = std::move(hot_[h]);
    ++kept;
  }
  if (kept != hot_.size()) {
    hot_.resize(kept);
    hot_index_.clear();
    for (std::size_t h = 0; h < kept; ++h) {
      hot_index_.insert(hot_[h].ad, static_cast<std::uint32_t>(h));
    }
  }

  // Promotions: hottest first (entries() sorts descending), so when the
  // budget only fits some of this epoch's heavy hitters it goes to the
  // heaviest. The count-minus-error lower bound keeps SpaceSaving's
  // overestimation from promoting an ad that merely inherited a counter.
  const std::uint64_t promote_floor = std::max<std::uint64_t>(
      opts_.min_promote_count,
      static_cast<std::uint64_t>(
          opts_.promote_share * static_cast<double>(epoch_len)) +
          1);
  for (const analysis::SpaceSaving::Entry& e : hh_.entries()) {
    if (e.count - e.error < promote_floor) continue;
    const auto ad = static_cast<std::uint32_t>(e.key);
    if (hot_index_.find(ad) != kTailAd) continue;
    promote_locked(ad, e.count - e.error);
  }

  hh_.clear();  // per-epoch counts: a shifted hotset demotes cleanly
  epoch_clicks_seen_ = 0;
  epoch_start_time_us_ = last_time_us_;
}

void TieredDetectorPool::route_locked(std::span<const std::uint32_t> ad_ids,
                                      std::span<const core::ClickId> ids,
                                      const std::uint64_t* times,
                                      std::uint64_t time_us,
                                      std::span<bool> out) {
  const std::size_t n = ids.size();
  if (n == 0) return;

  // EVERY click shadows into the tail on its composite key — this is what
  // makes tier moves lossless (header comment): the tail always holds the
  // last tail_window_clicks arrivals no matter which tier served them.
  // Maintenance never touches the tail and the tail sees the clicks in
  // order, so the whole call goes through it in one pipelined pass.
  keys_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys_[i] = core::composite_click_key(ad_ids[i], ids[i]);
  }
  const std::span<bool> tail_out = as_bools(tail_out_, n);
  if (times != nullptr) {
    tail_->offer_batch(keys_, std::span<const std::uint64_t>(times, n),
                       tail_out);
  } else {
    tail_->offer_batch(keys_, tail_out, time_us);
  }

  // Then each click in order, as a scalar replay would take it: the hot
  // tier and the SpaceSaving summary change only at maintenance, which
  // runs at the same click, and each hot detector sees its ad's clicks in
  // order.
  const bool count_basis = opts_.hot_window.basis == core::WindowBasis::kCount;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t t = times != nullptr ? times[i] : time_us;
    ++clicks_;
    ++epoch_clicks_seen_;
    last_time_us_ = std::max(last_time_us_, t);
    hh_.offer(ad_ids[i]);

    const bool tail_dup = tail_out[i];
    bool dup;
    const std::uint32_t h = hot_index_.find(ad_ids[i]);
    if (h != kTailAd) {
      HotEntry& entry = hot_[h];
      ++entry.epoch_count;
      const bool hot_dup = entry.detector->offer(ids[i], t);
      bool in_grace;
      if (count_basis) {
        in_grace = entry.grace_left > 0;
        if (in_grace) --entry.grace_left;
      } else {
        in_grace = t < entry.grace_until_us;
      }
      // During the handover grace the hot detector is still blind to
      // pre-promotion originals, so the tail's verdict counts; afterwards
      // it is ignored and hot FPR is the hot plan's alone.
      dup = hot_dup || (in_grace && tail_dup);
      ++hot_clicks_;
      hot_duplicates_ += dup ? 1 : 0;
    } else {
      dup = tail_dup;
      ++tail_clicks_;
      tail_duplicates_ += dup ? 1 : 0;
    }
    duplicates_ += dup ? 1 : 0;
    out[i] = dup;

    if (epoch_clicks_seen_ >= opts_.epoch_clicks) maintain_locked();
  }
}

bool TieredDetectorPool::offer(std::uint32_t ad_id, core::ClickId id,
                               std::uint64_t time_us) {
  bool dup = false;
  const std::lock_guard<std::mutex> lock(mutex_);
  route_locked(std::span<const std::uint32_t>(&ad_id, 1),
               std::span<const core::ClickId>(&id, 1), &time_us, 0,
               std::span<bool>(&dup, 1));
  return dup;
}

void TieredDetectorPool::offer_batch(std::span<const std::uint32_t> ad_ids,
                                     std::span<const core::ClickId> ids,
                                     std::span<bool> out,
                                     std::uint64_t time_us) {
  const std::size_t n = ids.size();
  if (ad_ids.size() != n || out.size() < n) {
    throw std::invalid_argument(
        "TieredDetectorPool::offer_batch: span mismatch");
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  route_locked(ad_ids, ids, nullptr, time_us, out);
}

void TieredDetectorPool::offer_batch(std::span<const std::uint32_t> ad_ids,
                                     std::span<const core::ClickId> ids,
                                     std::span<const std::uint64_t> times,
                                     std::span<bool> out) {
  const std::size_t n = ids.size();
  if (ad_ids.size() != n || times.size() < n || out.size() < n) {
    throw std::invalid_argument(
        "TieredDetectorPool::offer_batch: span mismatch");
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  route_locked(ad_ids, ids, times.data(), 0, out);
}

bool TieredDetectorPool::ad_is_hot(std::uint32_t ad_id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return hot_index_.find(ad_id) != kTailAd;
}

std::size_t TieredDetectorPool::memory_bits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return memory_bits_;
}

TierStats TieredDetectorPool::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  TierStats s;
  s.clicks = clicks_;
  s.duplicates = duplicates_;
  s.hot_clicks = hot_clicks_;
  s.hot_duplicates = hot_duplicates_;
  s.tail_clicks = tail_clicks_;
  s.tail_duplicates = tail_duplicates_;
  s.hot_ads = hot_.size();
  s.tail_memory_bits = tail_->memory_bits();
  s.memory_bits = memory_bits_;
  s.hot_memory_bits = memory_bits_ - s.tail_memory_bits;
  s.memory_cap_bits = opts_.memory_cap_bits;
  s.promotions = promotions_;
  s.demotions = demotions_;
  s.promotion_deferrals = promotion_deferrals_;
  s.hot_target_fpr = opts_.hot_target_fpr;
  s.tail_target_fpr = opts_.tail_target_fpr;
  return s;
}

namespace {
/// Geometry fingerprint, followed in the snapshot by the hot window:
/// restore() refuses a snapshot whose tiers were planned under different
/// options (the detectors wouldn't line up).
std::array<std::uint64_t, 6> tiering_fingerprint(const TieredPoolOptions& o) {
  return {o.memory_cap_bits, std::bit_cast<std::uint64_t>(o.hot_target_fpr),
          std::bit_cast<std::uint64_t>(o.tail_target_fpr),
          o.tail_window_clicks, o.hh_capacity, o.epoch_clicks};
}
}  // namespace

void TieredDetectorPool::save(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  namespace io = core::detail;
  io::write_section(out, io::kTieredPoolMagic, [&](std::ostream& payload) {
    for (const std::uint64_t word : tiering_fingerprint(opts_)) {
      io::write_u64(payload, word);
    }
    io::write_window(payload, opts_.hot_window);

    io::write_u64(payload, clicks_);
    io::write_u64(payload, duplicates_);
    io::write_u64(payload, hot_clicks_);
    io::write_u64(payload, hot_duplicates_);
    io::write_u64(payload, tail_clicks_);
    io::write_u64(payload, tail_duplicates_);
    io::write_u64(payload, promotions_);
    io::write_u64(payload, demotions_);
    io::write_u64(payload, promotion_deferrals_);
    io::write_u64(payload, epoch_clicks_seen_);
    io::write_u64(payload, epoch_start_time_us_);
    io::write_u64(payload, last_time_us_);

    hh_.save(payload);
    tail_->save(payload);

    io::write_u64(payload, hot_.size());
    std::vector<std::uint32_t> by_ad(hot_.size());
    std::iota(by_ad.begin(), by_ad.end(), 0u);
    std::sort(by_ad.begin(), by_ad.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return hot_[a].ad < hot_[b].ad;
              });
    for (const std::uint32_t h : by_ad) {  // ascending ad order
      const HotEntry& entry = hot_[h];
      io::write_u64(payload, entry.ad);
      io::write_u64(payload, entry.sized_n);
      io::write_u64(payload, entry.grace_left);
      io::write_u64(payload, entry.grace_until_us);
      io::write_u64(payload, entry.epoch_count);
      entry.detector->save(payload);
    }
  });
  if (!out) {
    throw std::runtime_error("TieredDetectorPool::save: write failed");
  }
}

void TieredDetectorPool::restore(std::istream& in) {
  const std::lock_guard<std::mutex> lock(mutex_);
  namespace io = core::detail;
  io::read_section(
      in, io::kTieredPoolMagic, "TieredDetectorPool", [&](std::istream& ps) {
        bool options_match = true;
        for (const std::uint64_t word : tiering_fingerprint(opts_)) {
          options_match &= io::read_u64(ps) == word;
        }
        io::expect_window(ps, opts_.hot_window, "TieredDetectorPool");
        if (!options_match) {
          throw std::runtime_error(
              "TieredDetectorPool::restore: snapshot was saved under "
              "different tiering options");
        }

        clicks_ = io::read_u64(ps);
        duplicates_ = io::read_u64(ps);
        hot_clicks_ = io::read_u64(ps);
        hot_duplicates_ = io::read_u64(ps);
        tail_clicks_ = io::read_u64(ps);
        tail_duplicates_ = io::read_u64(ps);
        promotions_ = io::read_u64(ps);
        demotions_ = io::read_u64(ps);
        promotion_deferrals_ = io::read_u64(ps);
        epoch_clicks_seen_ = io::read_u64(ps);
        epoch_start_time_us_ = io::read_u64(ps);
        last_time_us_ = io::read_u64(ps);

        hh_.restore(ps);
        tail_->restore(ps);
        hot_.clear();
        hot_index_.clear();
        memory_bits_ = tail_->memory_bits();

        const std::uint64_t hot_count = io::read_u64(ps);
        if (hot_count > kMaxSnapshotHotAds) {
          throw std::runtime_error(
              "TieredDetectorPool::restore: implausible hot-ad count " +
              std::to_string(hot_count));
        }
        std::uint64_t prev_ad = 0;
        for (std::uint64_t i = 0; i < hot_count; ++i) {
          const std::uint64_t ad = io::read_u64(ps);
          if (ad > 0xffffffffull || (i > 0 && ad <= prev_ad)) {
            throw std::runtime_error(
                "TieredDetectorPool::restore: hot ad ids corrupt or out of "
                "order");
          }
          prev_ad = ad;
          HotEntry entry;
          entry.ad = static_cast<std::uint32_t>(ad);
          entry.sized_n = io::read_u64(ps);
          entry.grace_left = io::read_u64(ps);
          entry.grace_until_us = io::read_u64(ps);
          entry.epoch_count = io::read_u64(ps);
          entry.detector = build_hot_detector(entry.sized_n);
          try {
            entry.detector->restore(ps);
          } catch (const std::exception& e) {
            throw std::runtime_error("TieredDetectorPool::restore: hot ad " +
                                     std::to_string(ad) + ": " + e.what());
          }
          entry.memory_bits = entry.detector->memory_bits();
          if (memory_bits_ + entry.memory_bits > opts_.memory_cap_bits) {
            throw std::runtime_error(
                "TieredDetectorPool::restore: snapshot exceeds the memory "
                "cap");
          }
          memory_bits_ += entry.memory_bits;
          hot_index_.insert(entry.ad, static_cast<std::uint32_t>(hot_.size()));
          hot_.push_back(std::move(entry));
        }
      });
}

}  // namespace ppc::adnet
