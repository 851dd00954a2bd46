// make_detector: picks the paper-recommended algorithm for a window model
// and divides a total memory budget the way the paper's analysis assumes.
//
//   landmark            → GBF with Q=1 (double-buffered Bloom filter)
//   jumping, small Q    → GBF  (m = M / (Q+1) bits per sub-filter, §3.1)
//   jumping, large Q    → TBF in jumping mode (§4.1: "When Q is large, GBF
//                         cannot process the click stream efficiently, and
//                         TBF is a better choice")
//   sliding             → TBF  (m = M / ⌈log₂(N+C+1)⌉ entries, §4)
#pragma once

#include <cstdint>
#include <memory>

#include "core/duplicate_detector.hpp"

namespace ppc::core {

/// Which duplicate-detection algorithm make_detector builds.
enum class DetectorBackend : std::uint8_t {
  /// The 2008 paper's recommendation per window model (the table above).
  kAuto,
  /// Force GroupBloomFilter (jumping/landmark windows only).
  kGbf,
  /// Force TimingBloomFilter (sliding windows, count-based jumping).
  kTbf,
  /// Force AgePartitionedBloomFilter (sliding windows, count or time basis;
  /// the post-2008 contender — see bench/memory_vs_fpr for the trade-off).
  kApbf,
};

struct DetectorBudget {
  /// Total filter memory M in bits, split per the chosen algorithm.
  std::uint64_t total_memory_bits = std::uint64_t{1} << 24;
  /// Number of hash functions k (APBF: consecutive slices per insert,
  /// unless apbf_consecutive overrides it).
  std::size_t hash_count = 7;
  /// Backend selection; kAuto keeps the paper's window-model dispatch.
  DetectorBackend backend = DetectorBackend::kAuto;
  /// Jumping windows switch from GBF to TBF above this Q. Default keeps
  /// every GBF slot inside one 64-bit lane (Q+1 ≤ 64), mirroring the
  /// paper's "CPU reads one D-bit word" cost model.
  std::uint32_t max_gbf_subwindows = 63;
  /// TBF wraparound slack C (0 = paper default, window_ticks - 1).
  std::uint64_t tbf_c = 0;
  /// APBF k (consecutive slices); 0 inherits hash_count.
  std::size_t apbf_consecutive = 0;
  /// APBF ℓ (retired generations covered). Window-boundary slack is ≈ 1/ℓ
  /// of the window; each extra generation costs one more m-bit slice.
  std::size_t apbf_generations = 8;
  std::uint64_t seed = 0;
};

/// Builds the recommended detector for `window` under `budget`.
/// @throws std::invalid_argument if the budget is too small to hold even a
///         one-entry filter for the requested window.
std::unique_ptr<DuplicateDetector> make_detector(const WindowSpec& window,
                                                 const DetectorBudget& budget);

}  // namespace ppc::core
