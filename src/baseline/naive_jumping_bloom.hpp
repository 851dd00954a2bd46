// The *naive* jumping-window Bloom deployment of §3.1 — Q+1 separate
// (non-grouped) Bloom filters with incremental cleaning — kept as an
// ablation baseline: it is bit-for-bit equivalent to GBF in verdicts, but
// a probe touches Q filters' words instead of one grouped word, which is
// exactly the memory-operation gap Theorem 1's running-time claim (and our
// thm1_gbf_throughput bench) quantifies.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "bits/bit_vector.hpp"
#include "core/duplicate_detector.hpp"
#include "hashing/index_family.hpp"

namespace ppc::baseline {

class NaiveJumpingBloomDetector final : public core::DuplicateDetector {
 public:
  struct Options {
    std::uint64_t bits_per_subfilter = 1u << 20;
    std::size_t hash_count = 7;
    std::uint64_t seed = 0;
  };

  NaiveJumpingBloomDetector(core::WindowSpec window, Options opts)
      : window_(window),
        opts_(opts),
        family_(opts.hash_count, opts.bits_per_subfilter, opts.seed) {
    if (window_.kind != core::WindowKind::kJumping ||
        window_.basis != core::WindowBasis::kCount) {
      throw std::invalid_argument(
          "NaiveJumpingBloomDetector: count-based jumping windows only");
    }
    window_.validate();
    subwindow_len_ = window_.subwindow_length();
    clean_stride_ =
        (opts.bits_per_subfilter + subwindow_len_ - 1) / subwindow_len_;
    filters_.assign(window_.subwindows + 1,
                    bits::BitVector(opts.bits_per_subfilter));
  }

  bool do_offer(core::ClickId id, std::uint64_t /*time_us*/) override {
    // Incremental cleaning of the expired filter, same budget as GBF.
    if (clean_pos_ < opts_.bits_per_subfilter) {
      const std::uint64_t end = std::min<std::uint64_t>(
          clean_pos_ + clean_stride_, opts_.bits_per_subfilter);
      filters_[cleaning_].reset_range(static_cast<std::size_t>(clean_pos_),
                                      static_cast<std::size_t>(end));
      if (ops_ != nullptr) {
        ops_->word_writes +=
            (end - clean_pos_ + bits::BitVector::kWordBits - 1) /
            bits::BitVector::kWordBits;
      }
      clean_pos_ = end;
    }

    std::uint64_t idx[hashing::kMaxHashFunctions];
    const std::size_t k = family_.k();
    family_.indices(id, std::span<std::uint64_t>(idx, k));
    if (ops_ != nullptr) ops_->hash_evals += 1;

    // The cost the paper calls out: every probe inspects every active
    // filter — about Q·k bit reads instead of GBF's k word reads.
    bool duplicate = false;
    for (std::size_t f = 0; f < filters_.size() && !duplicate; ++f) {
      if (f == cleaning_) continue;
      bool all = true;
      for (std::size_t i = 0; i < k; ++i) {
        if (ops_ != nullptr) ops_->word_reads += 1;
        if (!filters_[f].test(static_cast<std::size_t>(idx[i]))) {
          all = false;
          break;
        }
      }
      duplicate = all;
    }

    if (!duplicate) {
      for (std::size_t i = 0; i < k; ++i) {
        filters_[current_].set(static_cast<std::size_t>(idx[i]));
      }
      if (ops_ != nullptr) ops_->word_writes += k;
    }

    if (++fill_count_ == subwindow_len_) {
      current_ = cleaning_;
      cleaning_ = (cleaning_ + 1) % filters_.size();
      clean_pos_ = 0;
      fill_count_ = 0;
    }
    return duplicate;
  }

  core::WindowSpec window() const override { return window_; }
  std::size_t memory_bits() const override {
    return opts_.bits_per_subfilter * filters_.size();
  }
  bool zero_false_negatives() const override { return true; }
  std::string name() const override { return "Naive-jumping-BF"; }
  void reset() override {
    for (auto& f : filters_) f.clear();
    current_ = 0;
    cleaning_ = 1;
    clean_pos_ = 0;
    fill_count_ = 0;
  }

 private:
  core::WindowSpec window_;
  Options opts_;
  hashing::IndexFamily family_;
  std::vector<bits::BitVector> filters_;
  std::size_t current_ = 0;
  std::size_t cleaning_ = 1;
  std::uint64_t clean_pos_ = 0;
  std::uint64_t clean_stride_ = 0;
  std::uint64_t fill_count_ = 0;
  std::uint64_t subwindow_len_ = 0;
};

}  // namespace ppc::baseline
