// Reference hash families for the index-derivation tests.
//
// IndexFamily derives all k indices from one fmix64 pair (double hashing).
// hashing_test runs the same uniformity and seed-decorrelation checks on
// two unrelated families built from these functions — k independent XXH64
// evaluations, and double hashing over seeded tabulation hashes — so a
// distribution defect shows as IndexFamily disagreeing with them, not as a
// property of one hash scheme.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "hashing/hash_common.hpp"

namespace ppc::hashing::reference {

/// XXH64 of `data` with `seed`, reimplemented from the published
/// specification.
inline std::uint64_t xxh64(Bytes data, std::uint64_t seed = 0) noexcept {
  constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ULL;
  constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4fULL;
  constexpr std::uint64_t kP3 = 0x165667b19e3779f9ULL;
  constexpr std::uint64_t kP4 = 0x85ebca77c2b2ae63ULL;
  constexpr std::uint64_t kP5 = 0x27d4eb2f165667c5ULL;
  const auto round_step = [](std::uint64_t acc, std::uint64_t input) {
    return rotl64(acc + input * kP2, 31) * kP1;
  };
  const auto merge_round = [&](std::uint64_t acc, std::uint64_t val) {
    return (acc ^ round_step(0, val)) * kP1 + kP4;
  };

  const auto* p = reinterpret_cast<const std::uint8_t*>(data.data());
  const std::uint8_t* const end = p + data.size();
  std::uint64_t h;
  if (data.size() >= 32) {
    const std::uint8_t* const limit = end - 32;
    std::uint64_t v1 = seed + kP1 + kP2;
    std::uint64_t v2 = seed + kP2;
    std::uint64_t v3 = seed + 0;
    std::uint64_t v4 = seed - kP1;
    do {
      v1 = round_step(v1, load_u64(p));
      v2 = round_step(v2, load_u64(p + 8));
      v3 = round_step(v3, load_u64(p + 16));
      v4 = round_step(v4, load_u64(p + 24));
      p += 32;
    } while (p <= limit);
    h = rotl64(v1, 1) + rotl64(v2, 7) + rotl64(v3, 12) + rotl64(v4, 18);
    h = merge_round(h, v1);
    h = merge_round(h, v2);
    h = merge_round(h, v3);
    h = merge_round(h, v4);
  } else {
    h = seed + kP5;
  }
  h += data.size();
  while (p + 8 <= end) {
    h ^= round_step(0, load_u64(p));
    h = rotl64(h, 27) * kP1 + kP4;
    p += 8;
  }
  if (p + 4 <= end) {
    h ^= std::uint64_t(load_u32(p)) * kP1;
    h = rotl64(h, 23) * kP2 + kP3;
    p += 4;
  }
  while (p < end) {
    h ^= std::uint64_t(*p) * kP5;
    h = rotl64(h, 11) * kP1;
    ++p;
  }
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

/// Seeded tabulation hashing for 64-bit keys: XOR of eight 256-entry random
/// tables, one per key byte, filled from a SplitMix64 stream. 3-independent,
/// and in practice behaves like a fully random function on Bloom-filter
/// workloads.
class TabulationHash64 {
 public:
  explicit TabulationHash64(std::uint64_t seed = 0) noexcept {
    std::uint64_t state = seed ^ 0x7462756c6174696fULL;  // "tabulatio"
    for (auto& table : tables_) {
      for (auto& entry : table) {
        entry = splitmix64_next(state);
      }
    }
  }

  std::uint64_t operator()(std::uint64_t key) const noexcept {
    std::uint64_t h = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      h ^= tables_[i][(key >> (8 * i)) & 0xffu];
    }
    return h;
  }

 private:
  std::array<std::array<std::uint64_t, 256>, 8> tables_;
};

}  // namespace ppc::hashing::reference
