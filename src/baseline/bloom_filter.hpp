// Classical Bloom filter (Bloom 1970), the primitive behind the landmark
// baseline and the reference point of every false-positive formula in
// analysis/theory.hpp.
#pragma once

#include <cstdint>

#include "bits/bit_vector.hpp"
#include "hashing/index_family.hpp"

namespace ppc::baseline {

class BloomFilter {
 public:
  /// @param bits m, @param hash_count k.
  BloomFilter(std::uint64_t bits, std::size_t hash_count,
              std::uint64_t seed = 0)
      : family_(hash_count, bits, seed), bits_(bits) {}

  /// True iff all k bits for `key` are set (possible false positive).
  bool contains(std::uint64_t key) const {
    std::uint64_t idx[hashing::kMaxHashFunctions];
    family_.indices(key, std::span<std::uint64_t>(idx, family_.k()));
    for (std::size_t i = 0; i < family_.k(); ++i) {
      if (!bits_.test(static_cast<std::size_t>(idx[i]))) return false;
    }
    return true;
  }

  void insert(std::uint64_t key) {
    std::uint64_t idx[hashing::kMaxHashFunctions];
    family_.indices(key, std::span<std::uint64_t>(idx, family_.k()));
    for (std::size_t i = 0; i < family_.k(); ++i) {
      bits_.set(static_cast<std::size_t>(idx[i]));
    }
  }

  /// Single-pass duplicate probe: inserts and reports prior membership.
  bool test_and_insert(std::uint64_t key) {
    std::uint64_t idx[hashing::kMaxHashFunctions];
    family_.indices(key, std::span<std::uint64_t>(idx, family_.k()));
    bool present = true;
    for (std::size_t i = 0; i < family_.k(); ++i) {
      present &= bits_.test_and_set(static_cast<std::size_t>(idx[i]));
    }
    return present;
  }

  void clear() { bits_.clear(); }

  std::uint64_t size_bits() const { return bits_.size(); }
  std::size_t hash_count() const { return family_.k(); }
  double fill_factor() const { return bits_.fill_factor(); }

 private:
  hashing::IndexFamily family_;
  bits::BitVector bits_;
};

}  // namespace ppc::baseline
