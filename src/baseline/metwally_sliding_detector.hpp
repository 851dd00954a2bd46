// The sliding-window proposal of Metwally et al. as §2.4 describes it: a
// counting Bloom filter plus a queue of ALL active click identifiers, so
// that each identifier can be decremented out of the filter when it slides
// past the window edge.
//
// It is exact about expiry and has no aliasing concerns — but "their
// solution must keep all active click identifications in memory to slide
// them out later after they expire": the queue costs 64 bits per window
// element on top of the filter, which is the memory gap TBF's O(log N)
// timestamp entries close. memory_bits() reports the true total so the
// benches can show the comparison.
#pragma once

#include <cstdint>
#include <deque>
#include <stdexcept>

#include "baseline/counting_bloom_filter.hpp"
#include "core/duplicate_detector.hpp"

namespace ppc::baseline {

class MetwallySlidingDetector final : public core::DuplicateDetector {
 public:
  struct Options {
    std::uint64_t cells = 1u << 20;
    std::size_t counter_bits = 4;
    std::size_t hash_count = 7;
    std::uint64_t seed = 0;
  };

  MetwallySlidingDetector(core::WindowSpec window, Options opts)
      : window_(window),
        filter_(opts.cells, opts.counter_bits, opts.hash_count, opts.seed) {
    if (window_.kind != core::WindowKind::kSliding ||
        window_.basis != core::WindowBasis::kCount) {
      throw std::invalid_argument(
          "MetwallySlidingDetector: count-based sliding windows only");
    }
    window_.validate();
  }

  bool do_offer(core::ClickId id, std::uint64_t /*time_us*/) override {
    // Slide: the arrival that fell off the window is erased from the
    // filter using its retained identifier.
    if (ring_.size() == window_.length) {
      const Slot old = ring_.front();
      ring_.pop_front();
      if (old.valid) filter_.erase(old.id);
    }
    const bool duplicate = filter_.contains(id);
    ring_.push_back({id, !duplicate});
    if (!duplicate) filter_.insert(id);
    return duplicate;
  }

  core::WindowSpec window() const override { return window_; }
  std::size_t memory_bits() const override {
    // Filter + the identifier queue the paper criticizes (64 bits per
    // retained id plus one validity bit).
    return filter_.memory_bits() + ring_.size() * 65;
  }
  bool zero_false_negatives() const override {
    return true;  // until counters saturate; see CountingBloomFilter
  }
  std::string name() const override { return "Metwally-sliding-CBF"; }
  void reset() override {
    filter_.clear();
    ring_.clear();
  }

  std::uint64_t saturation_events() const {
    return filter_.saturation_events();
  }

 private:
  struct Slot {
    core::ClickId id;
    bool valid;
  };

  core::WindowSpec window_;
  CountingBloomFilter filter_;
  std::deque<Slot> ring_;
};

}  // namespace ppc::baseline
