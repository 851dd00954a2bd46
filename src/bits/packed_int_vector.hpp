// PackedIntVector: n entries of a fixed bit width b (1..64), bit-packed into
// 64-bit words.
//
// This is the storage the paper's space analysis assumes for the timing
// Bloom filter: each TBF entry is exactly ⌈log₂(N+C+1)⌉ bits, so a filter of
// m entries occupies m·⌈log₂(N+C+1)⌉ bits — not m machine words. Entries may
// straddle a word boundary; get/set read and write the two words an entry
// may span as one 128-bit value, so they take no branch on the split.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace ppc::bits {

class PackedIntVector {
 public:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;

  PackedIntVector() = default;

  /// `size` entries of `bit_width` bits each, all initialized to `fill`.
  /// `fill` must fit in `bit_width` bits.
  PackedIntVector(std::size_t size, std::size_t bit_width, Word fill = 0)
      : size_(size),
        bit_width_(bit_width),
        mask_(bit_width == kWordBits ? ~Word{0}
                                     : (Word{1} << bit_width) - 1),
        words_((size * bit_width + kWordBits - 1) / kWordBits + 1, 0) {
    assert(bit_width >= 1 && bit_width <= kWordBits);
    assert((fill & ~mask_) == 0);
    if (fill != 0) fill_all(fill);
  }

  std::size_t size() const noexcept { return size_; }
  std::size_t bit_width() const noexcept { return bit_width_; }
  Word max_value() const noexcept { return mask_; }

  /// Total payload bits (the number the paper's memory accounting uses).
  std::size_t payload_bits() const noexcept { return size_ * bit_width_; }

  Word get(std::size_t i) const noexcept {
    assert(i < size_);
    return get_at(words_.data(), bit_width_, mask_, i);
  }

  void set(std::size_t i, Word value) noexcept {
    assert(i < size_);
    assert((value & ~mask_) == 0);
    set_at(words_.data(), bit_width_, mask_, i, value);
  }

  /// Sets every entry to `value`. O(size), used at construction/reset only.
  void fill_all(Word value) noexcept {
    for (std::size_t i = 0; i < size_; ++i) set(i, value);
  }

  /// A by-value view for hot loops. Its word pointer, width and mask stay
  /// in registers (stores through it cannot alias the vector's own
  /// fields); get/set are the vector's own.
  class View {
   public:
    Word get(std::size_t i) const noexcept {
      return get_at(words_, width_, mask_, i);
    }

    void set(std::size_t i, Word value) noexcept {
      set_at(words_, width_, mask_, i, value);
    }

    /// Sets to max_value() every entry in [begin, begin + count) whose
    /// value satisfies `pred`, scanning in order; returns how many it set.
    /// The current word pair stays in a register and the set bits are
    /// OR-ed in once per word, so the scan carries no store-to-load
    /// dependency from one entry to the next and has no per-entry branch
    /// on `pred`.
    template <typename Pred>
    std::size_t saturate_if(std::size_t begin, std::size_t count,
                            Pred pred) noexcept {
      const std::size_t bit = begin * width_;
      Word* w = words_ + bit / kWordBits;
      std::size_t off = bit % kWordBits;
      Pair cur = count > 0 ? pair(w) : 0;
      Pair set = 0;
      std::size_t hits = 0;
      for (std::size_t n = 0; n < count; ++n) {
        // The hit is used as a number (0 or 1), never as a condition, so
        // the compiler keeps the loop body free of data-dependent jumps.
        const Word hit = pred(static_cast<Word>(cur >> off) & mask_) ? 1 : 0;
        set |= Pair{mask_ & (Word{0} - hit)} << off;
        hits += hit;
        off += width_;
        if (off >= kWordBits) {  // w[0] is complete: flush and slide
          w[0] |= static_cast<Word>(set);
          set >>= kWordBits;
          off -= kWordBits;
          ++w;
          // After the table's last entry w may be the guard word, whose
          // successor does not exist: load only if entries remain.
          if (n + 1 < count) cur = pair(w);
        }
      }
      // Every scanned entry ends at or before bit `off` of w[0] (the slide
      // above runs whenever one reaches past it), so `set` holds nothing
      // beyond w[0].
      w[0] |= static_cast<Word>(set);
      return hits;
    }

   private:
    friend class PackedIntVector;
    View(Word* words, std::size_t width, Word mask) noexcept
        : words_(words), width_(width), mask_(mask) {}

    Word* words_;
    std::size_t width_;
    Word mask_;
  };

  View view() noexcept { return View(words_.data(), bit_width_, mask_); }

  /// Hints the CPU to pull entry `i`'s word(s) into cache ahead of a read.
  void prefetch(std::size_t i) const noexcept {
    __builtin_prefetch(&words_[i * bit_width_ / kWordBits], /*rw=*/0,
                       /*locality=*/1);
  }

  /// Raw backing words (including the guard word) — serialization only.
  std::span<const Word> raw_words() const noexcept { return words_; }

  /// Restores raw backing words captured by raw_words(). The word count
  /// must match the current geometry.
  void set_raw_words(std::span<const Word> words) {
    if (words.size() != words_.size()) {
      throw std::length_error("PackedIntVector: raw word count mismatch");
    }
    std::copy(words.begin(), words.end(), words_.begin());
  }

 private:
  using Pair = unsigned __int128;

  /// The two words entry `i` may straddle, as one value. The guard word
  /// makes the second always addressable.
  static Pair pair(const Word* w) noexcept {
    return (Pair{w[1]} << kWordBits) | w[0];
  }

  // The one implementation of entry access, branch-free: it reads and
  // writes the word pair whole, so a set of an entry that does not
  // straddle writes the second word back unchanged.
  static Word get_at(const Word* words, std::size_t width, Word mask,
                     std::size_t i) noexcept {
    const std::size_t bit = i * width;
    return static_cast<Word>(pair(words + bit / kWordBits) >>
                             (bit % kWordBits)) &
           mask;
  }

  static void set_at(Word* words, std::size_t width, Word mask,
                     std::size_t i, Word value) noexcept {
    const std::size_t bit = i * width;
    Word* w = words + bit / kWordBits;
    const unsigned off = bit % kWordBits;
    const Pair both = (pair(w) & ~(Pair{mask} << off)) | (Pair{value} << off);
    w[0] = static_cast<Word>(both);
    w[1] = static_cast<Word>(both >> kWordBits);
  }

  std::size_t size_ = 0;
  std::size_t bit_width_ = 1;
  Word mask_ = 1;
  std::vector<Word> words_;
};

}  // namespace ppc::bits
