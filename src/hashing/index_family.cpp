#include "hashing/index_family.hpp"

#include <stdexcept>

namespace ppc::hashing {

IndexFamily::IndexFamily(std::size_t k, std::uint64_t range,
                         std::uint64_t seed)
    : k_(k), range_(range), seed_(seed) {
  if (k == 0 || k > kMaxHashFunctions) {
    throw std::invalid_argument("IndexFamily: k must be in [1, 64]");
  }
  if (range == 0) {
    throw std::invalid_argument("IndexFamily: range must be positive");
  }
}

void IndexFamily::indices_batch(std::span<const std::uint64_t> keys,
                                std::span<std::uint64_t> out) const noexcept {
  assert(out.size() >= keys.size() * k_);
  const std::uint64_t seed = seed_;
  const std::size_t k = k_;
  const std::uint64_t range = range_;
  std::uint64_t* row = out.data();
  for (const std::uint64_t key : keys) {
    derive(key, seed, k, range, row);
    row += k;
  }
}

}  // namespace ppc::hashing
