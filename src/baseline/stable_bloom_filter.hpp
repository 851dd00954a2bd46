// Stable Bloom Filter (Deng & Rafiei, SIGMOD'06) — the related-work
// baseline of §2.4 that trades *false negatives* for bounded memory on
// unbounded streams: before each insert, P randomly chosen cells are
// decremented, randomly evicting stale elements.
//
// The paper's key criticism — "their randomly evicting mechanism introduces
// false negatives besides the inherent false positives" — is what the
// fn_rate_comparison bench demonstrates against GBF/TBF.
#pragma once

#include <cstdint>

#include "bits/packed_int_vector.hpp"
#include "core/duplicate_detector.hpp"
#include "hashing/index_family.hpp"

namespace ppc::baseline {

class StableBloomFilter final : public core::DuplicateDetector {
 public:
  struct Options {
    std::uint64_t cells = 1u << 20;
    std::size_t cell_bits = 3;   // d; Max = 2^d - 1
    std::size_t hash_count = 7;  // k
    std::size_t decrements_per_arrival = 10;  // P
    std::uint64_t seed = 0;

    /// Max, the value fresh inserts are pinned to: 2^d - 1.
    std::uint64_t max_cell_value() const {
      return (std::uint64_t{1} << cell_bits) - 1;
    }
  };

  /// The window spec is advisory: an SBF has no crisp window; its effective
  /// freshness horizon is set by P, d and the arrival rate. We keep the
  /// spec so the experiment harness can compare it against true windowed
  /// detectors at matched horizons.
  StableBloomFilter(core::WindowSpec window, Options opts)
      : window_(window),
        opts_(opts),
        family_(opts.hash_count, opts.cells, opts.seed),
        cells_(opts.cells, opts.cell_bits, 0),
        prng_state_(opts.seed ^ 0x5b1e55ed) {}

  bool do_offer(core::ClickId id, std::uint64_t /*time_us*/) override {
    std::uint64_t idx[hashing::kMaxHashFunctions];
    const std::size_t k = family_.k();
    family_.indices(id, std::span<std::uint64_t>(idx, k));

    bool duplicate = true;
    for (std::size_t i = 0; i < k; ++i) {
      if (cells_.get(static_cast<std::size_t>(idx[i])) == 0) {
        duplicate = false;
        break;
      }
    }

    // Random decay: P uniformly random cells lose one unit. This is what
    // evicts stale elements — and what loses fresh ones (false negatives).
    for (std::size_t p = 0; p < opts_.decrements_per_arrival; ++p) {
      const std::size_t cell = static_cast<std::size_t>(
          (static_cast<unsigned __int128>(next_random()) * cells_.size()) >> 64);
      const std::uint64_t v = cells_.get(cell);
      if (v > 0) cells_.set(cell, v - 1);
    }

    if (!duplicate) {
      for (std::size_t i = 0; i < k; ++i) {
        cells_.set(static_cast<std::size_t>(idx[i]), cells_.max_value());
      }
    }
    return duplicate;
  }

  core::WindowSpec window() const override { return window_; }
  std::size_t memory_bits() const override { return cells_.payload_bits(); }
  bool zero_false_negatives() const override { return false; }
  std::string name() const override { return "Stable-BF"; }
  void reset() override {
    cells_.fill_all(0);
    prng_state_ = opts_.seed ^ 0x5b1e55ed;
  }

 private:
  std::uint64_t next_random() noexcept {
    return hashing::splitmix64_next(prng_state_);
  }

  core::WindowSpec window_;
  Options opts_;
  hashing::IndexFamily family_;
  bits::PackedIntVector cells_;
  std::uint64_t prng_state_;
};

}  // namespace ppc::baseline
