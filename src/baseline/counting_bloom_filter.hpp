// Counting Bloom filter (Fan et al., "Summary Cache"), the primitive of the
// Metwally et al. jumping-window scheme our Figure 1 compares against.
//
// Counters live in a PackedIntVector so the memory accounting matches the
// paper's §3.3 criticism: with the same bit budget, counting filters have
// far fewer logical cells than a plain Bloom filter. Counters saturate at
// their maximum and then stick there ("saturate-and-stick"); saturated
// cells can no longer be decremented reliably, so deletion becomes lossy —
// the exact failure mode §3.3 describes. Saturation events are counted for
// the benchmarks.
#pragma once

#include <cstdint>

#include "bits/packed_int_vector.hpp"
#include "hashing/index_family.hpp"

namespace ppc::baseline {

class CountingBloomFilter {
 public:
  /// @param cells number of counters, @param counter_bits width per counter
  /// (4 in the original Summary Cache design), @param hash_count k.
  CountingBloomFilter(std::uint64_t cells, std::size_t counter_bits,
                      std::size_t hash_count, std::uint64_t seed = 0)
      : family_(hash_count, cells, seed),
        counters_(cells, counter_bits, 0),
        saturated_(cells, 1, 0) {}

  bool contains(std::uint64_t key) const {
    std::uint64_t idx[hashing::kMaxHashFunctions];
    family_.indices(key, std::span<std::uint64_t>(idx, family_.k()));
    for (std::size_t i = 0; i < family_.k(); ++i) {
      if (counters_.get(static_cast<std::size_t>(idx[i])) == 0) return false;
    }
    return true;
  }

  void insert(std::uint64_t key) {
    std::uint64_t idx[hashing::kMaxHashFunctions];
    family_.indices(key, std::span<std::uint64_t>(idx, family_.k()));
    for (std::size_t i = 0; i < family_.k(); ++i) {
      increment(static_cast<std::size_t>(idx[i]));
    }
  }

  /// Removes one prior insert of `key`. Saturated counters are left
  /// untouched (their true value is unknown), which can strand stale
  /// non-zero counters — the lossy-deletion drawback under test.
  void erase(std::uint64_t key) {
    std::uint64_t idx[hashing::kMaxHashFunctions];
    family_.indices(key, std::span<std::uint64_t>(idx, family_.k()));
    for (std::size_t i = 0; i < family_.k(); ++i) {
      decrement(static_cast<std::size_t>(idx[i]));
    }
  }

  /// Cell-wise c += o (Metwally: "combining two counting Bloom filters is
  /// performed by adding the corresponding counters"). Saturating.
  void add(const CountingBloomFilter& o);

  /// Cell-wise c -= o (expiring a sub-window from the main filter).
  /// Clamped at zero; cells that were ever saturated stay saturated.
  void subtract(const CountingBloomFilter& o);

  void clear() {
    counters_.fill_all(0);
    saturated_.fill_all(0);
    saturation_events_ = 0;
  }

  std::uint64_t cells() const { return counters_.size(); }
  std::size_t counter_bits() const { return counters_.bit_width(); }
  std::size_t hash_count() const { return family_.k(); }
  /// Total memory: counters plus the 1-bit-per-cell saturation flags.
  std::size_t memory_bits() const {
    return counters_.payload_bits() + saturated_.payload_bits();
  }
  std::uint64_t saturation_events() const { return saturation_events_; }

  std::uint64_t cell(std::size_t i) const { return counters_.get(i); }

 private:
  void increment(std::size_t i);
  void decrement(std::size_t i);

  hashing::IndexFamily family_;
  bits::PackedIntVector counters_;
  // Sticky per-cell saturation flags; needed so subtract() does not corrupt
  // cells whose true count overflowed the counter width.
  bits::PackedIntVector saturated_;
  std::uint64_t saturation_events_ = 0;
};

}  // namespace ppc::baseline
