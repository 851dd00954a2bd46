// IndexFamily: turns one click identifier into the k filter indices that
// every Bloom-filter variant in this library consumes.
//
// Kirsch–Mitzenmacher double hashing: two fmix64 chains over the 64-bit
// key yield (h1, h2), and index_i = (h1 + i*h2) mod range. This preserves
// the asymptotic false-positive rate of k independent hash functions while
// costing a single hash evaluation per element — exactly the
// operation-count regime the paper assumes. tests/hashing_test.cpp runs the
// same uniformity checks against k independent XXH64 evaluations and
// against tabulation hashing, so results are not an artifact of one scheme.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>

#include "hashing/hash_common.hpp"

namespace ppc::hashing {

/// Upper bound on k accepted by IndexFamily. The paper's sweeps stop at 20;
/// 64 leaves generous headroom while letting callers use fixed-size buffers.
inline constexpr std::size_t kMaxHashFunctions = 64;

/// Produces k indices in [0, range) for a key. Immutable after construction;
/// safe to share across threads.
class IndexFamily {
 public:
  /// @param k      number of indices per key, in [1, kMaxHashFunctions].
  /// @param range  exclusive upper bound of produced indices; must be > 0.
  /// @param seed   salts the whole family; two families with different seeds
  ///               behave as unrelated hash functions.
  IndexFamily(std::size_t k, std::uint64_t range, std::uint64_t seed = 0);

  std::size_t k() const noexcept { return k_; }
  std::uint64_t range() const noexcept { return range_; }
  std::uint64_t seed() const noexcept { return seed_; }

  /// Writes the k indices of `key` into `out` (size ≥ k). Inline: the
  /// per-click offer paths call it once per click.
  void indices(std::uint64_t key, std::span<std::uint64_t> out) const noexcept {
    assert(out.size() >= k_);
    derive(key, seed_, k_, range_, out.data());
  }

  /// Multi-key path for contiguous identifiers: writes the k indices of
  /// every key into `out`, key-major (`out[i*k + j]` is key i's j-th index;
  /// out.size() ≥ keys.size()·k). Bit-identical to calling `indices` per
  /// key; out of line so it compiles at -O3 with the geometry in registers.
  void indices_batch(std::span<const std::uint64_t> keys,
                     std::span<std::uint64_t> out) const noexcept;

 private:
  /// The derivation itself. Takes the geometry as arguments so the batch
  /// loop keeps it in registers instead of reloading it past every store.
  static void derive(std::uint64_t key, std::uint64_t seed, std::size_t k,
                     std::uint64_t range, std::uint64_t* out) noexcept {
    const std::uint64_t h1 = fmix64(key ^ seed);
    // Force h2 odd: guarantees all k probes are distinct modulo any power
    // of two range and avoids the degenerate h2 == 0 family.
    const std::uint64_t step = fmix64(h1 ^ 0xc4ceb9fe1a85ec53ULL) | 1u;
    std::uint64_t acc = h1;
    for (std::size_t j = 0; j < k; ++j) {
      // Lemire fast range reduction: maps a uniform 64-bit value onto
      // [0, range) without the modulo bias or latency of integer division.
      out[j] = static_cast<std::uint64_t>(
          (static_cast<unsigned __int128>(acc) * range) >> 64);
      acc += step;
    }
  }

  std::size_t k_;
  std::uint64_t range_;
  std::uint64_t seed_;
};

}  // namespace ppc::hashing
