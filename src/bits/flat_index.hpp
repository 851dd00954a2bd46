// FlatIndex: a 64-bit key → 32-bit slot map in one open-addressing array.
//
// The flat structures built on it (SpaceSaving's counters, the tiered
// pool's hot tier) keep their records in dense arrays and only need "which
// slot holds key K". Linear probing over a power-of-two table kept at most
// half full answers that from one or two cache lines, with no per-entry
// node allocation. Erase shifts the rest of the probe run back instead of
// leaving tombstones, so probe lengths do not degrade under the steady
// evict-and-replace churn of a full SpaceSaving summary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ppc::bits {

class FlatIndex {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// The slot mapped to `key`, or kNone.
  std::uint32_t find(std::uint64_t key) const noexcept {
    if (size_ == 0) return kNone;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (slots_[i].value == kNone) return kNone;
      if (slots_[i].key == key) return slots_[i].value;
    }
  }

  /// Maps `key`, which must be absent, to `value` (not kNone).
  void insert(std::uint64_t key, std::uint32_t value) {
    if (2 * (size_ + 1) > slots_.size()) {
      rehash(slots_.empty() ? 16 : 2 * slots_.size());
    }
    std::size_t i = home(key);
    while (slots_[i].value != kNone) i = (i + 1) & mask_;
    slots_[i] = Slot{key, value};
    ++size_;
  }

  /// Removes `key` if present.
  void erase(std::uint64_t key) noexcept {
    if (size_ == 0) return;
    std::size_t hole = home(key);
    for (;; hole = (hole + 1) & mask_) {
      if (slots_[hole].value == kNone) return;
      if (slots_[hole].key == key) break;
    }
    // Backward shift: an entry further along the run moves into the hole
    // unless its home lies cyclically after the hole (moving it would put
    // it before its home, where find() never looks).
    for (std::size_t j = (hole + 1) & mask_; slots_[j].value != kNone;
         j = (j + 1) & mask_) {
      if (((j - home(slots_[j].key)) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].value = kNone;
    --size_;
  }

  /// Empties the index, keeping its table for reuse.
  void clear() noexcept {
    for (Slot& s : slots_) s.value = kNone;
    size_ = 0;
  }

  std::size_t size() const noexcept { return size_; }

 private:
  struct Slot {
    std::uint64_t key;
    std::uint32_t value;
  };

  std::size_t home(std::uint64_t key) const noexcept {
    // Fibonacci hashing of the folded key: the top bits of the product
    // depend on every key bit, so dense small ids spread evenly.
    return static_cast<std::size_t>(((key ^ (key >> 32)) *
                                     0x9e3779b97f4a7c15ULL) >>
                                    shift_);
  }

  void rehash(std::size_t table_size) {
    std::vector<Slot> old(table_size, Slot{0, kNone});
    old.swap(slots_);
    mask_ = table_size - 1;
    shift_ = 64;
    for (std::size_t s = table_size; s > 1; s >>= 1) --shift_;
    size_ = 0;
    for (const Slot& s : old) {
      if (s.value != kNone) insert(s.key, s.value);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace ppc::bits
