#include "baseline/metwally_jumping_detector.hpp"

#include <stdexcept>

namespace ppc::baseline {

MetwallyJumpingDetector::MetwallyJumpingDetector(core::WindowSpec window,
                                                 Options opts)
    : window_(window),
      opts_(opts),
      main_(opts.cells, opts.main_counter_bits, opts.hash_count, opts.seed) {
  if (window_.kind != core::WindowKind::kJumping ||
      window_.basis != core::WindowBasis::kCount) {
    throw std::invalid_argument(
        "MetwallyJumpingDetector: count-based jumping windows only");
  }
  window_.validate();
  subwindow_len_ = window_.subwindow_length();
  subs_.reserve(window_.subwindows);
  for (std::uint32_t q = 0; q < window_.subwindows; ++q) {
    subs_.emplace_back(opts.cells, opts.sub_counter_bits, opts.hash_count,
                       opts.seed);
  }
}

std::size_t MetwallyJumpingDetector::memory_bits() const {
  std::size_t total = main_.memory_bits();
  for (const auto& s : subs_) total += s.memory_bits();
  return total;
}

std::uint64_t MetwallyJumpingDetector::saturation_events() const {
  std::uint64_t total = main_.saturation_events();
  for (const auto& s : subs_) total += s.saturation_events();
  return total;
}

void MetwallyJumpingDetector::reset() {
  main_.clear();
  for (auto& s : subs_) s.clear();
  current_sub_ = 0;
  fill_count_ = 0;
  window_filled_ = 1;
}

void MetwallyJumpingDetector::jump() {
  current_sub_ = (current_sub_ + 1) % subs_.size();
  if (window_filled_ < subs_.size()) {
    ++window_filled_;
    return;  // window not yet full: nothing expires
  }
  // Expire the eldest sub-window: subtract it from the main filter (the
  // O(m) burst §3.3 criticizes), then reuse its storage for the new
  // sub-window.
  main_.subtract(subs_[current_sub_]);
  subs_[current_sub_].clear();
}

bool MetwallyJumpingDetector::do_offer(core::ClickId id,
                                    std::uint64_t /*time_us*/) {
  const bool duplicate = main_.contains(id);
  if (!duplicate) {
    subs_[current_sub_].insert(id);
    main_.insert(id);
  }
  if (++fill_count_ == subwindow_len_) {
    jump();
    fill_count_ = 0;
  }
  return duplicate;
}

}  // namespace ppc::baseline
