// The "previous algorithm" of Figure 1: the jumping-window scheme of
// Metwally, Agrawal & El Abbadi ("Duplicate Detection in Click Streams",
// WWW'05), as summarized in §3.3 of the paper.
//
// One counting Bloom filter per sub-window plus a *main* counting filter
// equal to the cell-wise sum of all active sub-filters. Membership is
// checked against the main filter; when a sub-window expires, its counters
// are subtracted from the main filter in one O(m) burst.
//
// The two drawbacks the paper calls out are reproduced faithfully and are
// measurable through this class:
//  1. The main filter effectively holds all N window elements in one m-cell
//     filter, so its false-positive rate explodes as N approaches m
//     (Figure 1's upper curve).
//  2. Counters of width w saturate (worst case needs log2(N) bits in the
//     main filter); saturated cells make deletion lossy, stranding stale
//     non-zero cells that become additional false positives.
//     `saturation_events()` exposes how often that happened.
#pragma once

#include <cstdint>
#include <vector>

#include "baseline/counting_bloom_filter.hpp"
#include "core/duplicate_detector.hpp"

namespace ppc::baseline {

class MetwallyJumpingDetector final : public core::DuplicateDetector {
 public:
  struct Options {
    /// Cells per counting filter (the scheme's m).
    std::uint64_t cells = 1u << 20;
    /// Counter width for the per-sub-window filters. The main filter gets
    /// `main_counter_bits` (worst case needs counts up to N).
    std::size_t sub_counter_bits = 4;
    std::size_t main_counter_bits = 8;
    std::size_t hash_count = 7;
    std::uint64_t seed = 0;
  };

  MetwallyJumpingDetector(core::WindowSpec window, Options opts);

  bool do_offer(core::ClickId id, std::uint64_t time_us) override;
  core::WindowSpec window() const override { return window_; }
  std::size_t memory_bits() const override;
  bool zero_false_negatives() const override {
    // Only until a counter saturates; lossy deletion can then strand or
    // prematurely clear cells. We report the design intent (no FN) and
    // expose saturation_events() so callers can see when it is violated.
    return true;
  }
  std::string name() const override { return "Metwally-CBF"; }
  void reset() override;

  std::uint64_t saturation_events() const;
  std::uint64_t cells() const { return opts_.cells; }

 private:
  void jump();

  core::WindowSpec window_;
  Options opts_;
  CountingBloomFilter main_;
  std::vector<CountingBloomFilter> subs_;  // ring of Q sub-window filters
  std::size_t current_sub_ = 0;
  std::uint64_t fill_count_ = 0;
  std::uint64_t subwindow_len_ = 0;
  std::uint64_t window_filled_ = 1;  // sub-windows in use so far (≤ Q)
};

}  // namespace ppc::baseline
