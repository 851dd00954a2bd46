// Common hashing primitives shared by the concrete hash functions.
//
// Everything in ppc::hashing is deterministic and seedable: the paper's
// filters need k independent uniform hash functions, and the experiment
// harness needs reproducible runs.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

namespace ppc::hashing {

/// 128-bit hash value. `lo` and `hi` are independently usable 64-bit hashes,
/// which is exactly what Kirsch–Mitzenmacher double hashing needs.
struct Hash128 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const Hash128&, const Hash128&) = default;
};

/// Fast 64-bit finalizer (Murmur3 fmix64). Bijective, so it never loses
/// entropy when mixing an already-random word.
constexpr std::uint64_t fmix64(std::uint64_t k) noexcept {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

/// SplitMix64 step: the canonical way to expand one 64-bit seed into a
/// stream of well-distributed words (seeds stream::Rng and the stable
/// Bloom filter's decrement PRNG).
constexpr std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl64(std::uint64_t x, int r) noexcept {
  return (x << r) | (x >> (64 - r));
}

/// Unaligned little-endian loads. memcpy compiles to a plain load on every
/// platform we target and is the only strictly-conforming way to do this.
inline std::uint64_t load_u64(const void* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline std::uint32_t load_u32(const void* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// View of arbitrary bytes, the common currency of all hash functions here.
using Bytes = std::string_view;

/// Reinterpret any trivially-copyable value as bytes for hashing.
template <typename T>
Bytes as_bytes(const T& value) noexcept {
  static_assert(std::is_trivially_copyable_v<T>);
  return Bytes(reinterpret_cast<const char*>(&value), sizeof(T));
}

}  // namespace ppc::hashing
