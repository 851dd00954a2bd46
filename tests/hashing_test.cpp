// Unit and statistical tests for the hashing substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/validity_oracle.hpp"
#include "core/group_bloom_filter.hpp"
#include "core/timing_bloom_filter.hpp"
#include "hashing/fnv.hpp"
#include "hashing/hash_common.hpp"
#include "hashing/index_family.hpp"
#include "hashing/murmur3.hpp"
#include "reference_hashes.hpp"
#include "stream/rng.hpp"
#include "stream/zipf.hpp"

namespace ppc::hashing {
namespace {

using reference::TabulationHash64;
using reference::xxh64;

TEST(Fmix64, IsBijectiveOnSamples) {
  // fmix64 must not collide: spot-check a dense sample.
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    EXPECT_TRUE(seen.insert(fmix64(i)).second) << "collision at " << i;
  }
}

TEST(Fmix64, ZeroMapsToZero) { EXPECT_EQ(fmix64(0), 0u); }

TEST(SplitMix64, ProducesKnownSequenceShape) {
  std::uint64_t s = 0;
  const std::uint64_t a = splitmix64_next(s);
  const std::uint64_t b = splitmix64_next(s);
  EXPECT_NE(a, b);
  // Golden value of splitmix64 with seed 0, first output.
  EXPECT_EQ(a, 0xe220a8397b1dcdafULL);
}

TEST(Fnv1a, MatchesPublishedVectors) {
  EXPECT_EQ(fnv1a64(""), kFnvOffsetBasis64);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Murmur3, EmptyInputSeedZeroIsZero) {
  const Hash128 h = murmur3_x64_128("", 0);
  EXPECT_EQ(h.lo, 0u);
  EXPECT_EQ(h.hi, 0u);
}

TEST(Murmur3, Deterministic) {
  EXPECT_EQ(murmur3_x64_128("click-fraud", 7), murmur3_x64_128("click-fraud", 7));
}

TEST(Murmur3, SeedChangesOutput) {
  EXPECT_NE(murmur3_x64_128("click", 1), murmur3_x64_128("click", 2));
}

TEST(Murmur3, AllTailLengthsDiffer) {
  // Exercise every tail-switch arm (lengths 0..32) and check injectivity
  // on this small sample.
  std::set<std::uint64_t> seen;
  std::string s;
  for (int len = 0; len <= 32; ++len) {
    EXPECT_TRUE(seen.insert(murmur3_x64_128(s, 0).lo).second)
        << "collision at length " << len;
    s.push_back(static_cast<char>('a' + len % 26));
  }
}

TEST(Murmur3, AvalancheOnSingleBitFlip) {
  // Flipping one input bit should flip roughly half the output bits.
  std::uint64_t key = 0x0123456789abcdefULL;
  const Hash128 base = murmur3_x64_128(as_bytes(key), 0);
  double total_flips = 0;
  for (int bit = 0; bit < 64; ++bit) {
    std::uint64_t mutated = key ^ (1ULL << bit);
    const Hash128 h = murmur3_x64_128(as_bytes(mutated), 0);
    total_flips += std::popcount(h.lo ^ base.lo) + std::popcount(h.hi ^ base.hi);
  }
  const double mean_flips = total_flips / 64.0;  // out of 128 bits
  EXPECT_GT(mean_flips, 50.0);
  EXPECT_LT(mean_flips, 78.0);
}

TEST(Xxh64, MatchesPublishedVectors) {
  EXPECT_EQ(xxh64("", 0), 0xef46db3751d8e999ULL);
  EXPECT_EQ(xxh64("abc", 0), 0x44bc2cf5ad770999ULL);
}

TEST(Xxh64, Deterministic) {
  const std::string long_input(1000, 'x');
  EXPECT_EQ(xxh64(long_input, 3), xxh64(long_input, 3));
  EXPECT_NE(xxh64(long_input, 3), xxh64(long_input, 4));
}

TEST(Xxh64, CoversAllLengthRegimes) {
  // < 4, < 8, < 32, >= 32 bytes all take different code paths.
  std::set<std::uint64_t> seen;
  std::string s;
  for (int len : {0, 1, 3, 4, 7, 8, 15, 31, 32, 33, 64, 100}) {
    s.assign(static_cast<std::size_t>(len), 'q');
    s.append(std::to_string(len));
    EXPECT_TRUE(seen.insert(xxh64(s, 0)).second);
  }
}

TEST(Tabulation, DeterministicPerSeed) {
  TabulationHash64 t1(42);
  TabulationHash64 t2(42);
  TabulationHash64 t3(43);
  EXPECT_EQ(t1(123456), t2(123456));
  EXPECT_NE(t1(123456), t3(123456));
}

TEST(Tabulation, UniformLowBits) {
  // Low output bit should be balanced over sequential keys.
  TabulationHash64 t(7);
  int ones = 0;
  constexpr int kTrials = 20'000;
  for (int i = 0; i < kTrials; ++i) ones += static_cast<int>(t(i) & 1);
  EXPECT_NEAR(ones, kTrials / 2, 4 * std::sqrt(kTrials / 4.0));
}

// ----------------------------------------------------------- IndexFamily

TEST(IndexFamily, RejectsBadParameters) {
  EXPECT_THROW(IndexFamily(0, 100), std::invalid_argument);
  EXPECT_THROW(IndexFamily(65, 100), std::invalid_argument);
  EXPECT_THROW(IndexFamily(4, 0), std::invalid_argument);
}

TEST(IndexFamily, IndicesStayInRange) {
  for (std::uint64_t range : {1ull, 2ull, 63ull, 1000ull, 1ull << 20}) {
    IndexFamily family(8, range);
    for (std::uint64_t key = 0; key < 200; ++key) {
      std::uint64_t idx[8];
      family.indices(key, std::span<std::uint64_t>(idx, 8));
      for (std::uint64_t v : idx) EXPECT_LT(v, range);
    }
  }
}

TEST(IndexFamily, BatchMatchesPerKeyElementForElement) {
  stream::Rng rng(77);
  const std::uint64_t ranges[] = {1, 7, std::uint64_t{1} << 20,
                                  (std::uint64_t{1} << 32) + 5,
                                  (std::uint64_t{1} << 63) + 3};
  std::vector<std::size_t> lengths(18);
  for (std::size_t n = 0; n < lengths.size(); ++n) lengths[n] = n;
  lengths.push_back(1024);
  for (const std::size_t k : {1, 2, 4, 7, 11, 13, 64}) {
    for (const std::uint64_t range : ranges) {
      for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{42},
                                       rng.next()}) {
        const IndexFamily family(k, range, seed);
        for (const std::size_t n : lengths) {
          std::vector<std::uint64_t> keys(n);
          for (auto& key : keys) key = rng.next();
          std::vector<std::uint64_t> got(n * k, ~std::uint64_t{0});
          family.indices_batch(keys, got);
          std::vector<std::uint64_t> expected(k);
          for (std::size_t i = 0; i < n; ++i) {
            family.indices(keys[i], expected);
            for (std::size_t j = 0; j < k; ++j) {
              ASSERT_EQ(got[i * k + j], expected[j])
                  << "k " << k << " range " << range << " seed " << seed
                  << " n " << n << " key " << i << " index " << j;
            }
          }
        }
      }
    }
  }
}

// IndexFamily against two reference derivations built from unrelated hash
// functions: k independent XXH64 evaluations, and double hashing over two
// seeded tabulation hashes. The checks below hold for all three, so a
// failure of double hashing alone is a defect of the derivation.
enum class Derivation { kDoubleHashing, kIndependentXxh64, kTabulation };

class IndexFamilyStrategyTest : public ::testing::TestWithParam<Derivation> {
 protected:
  /// Fills out[0..k) with key's indices in [0, range) under GetParam().
  static std::function<void(std::uint64_t, std::uint64_t*)> family(
      std::size_t k, std::uint64_t range, std::uint64_t seed) {
    const auto reduce = [range](std::uint64_t x) {
      return static_cast<std::uint64_t>(
          (static_cast<unsigned __int128>(x) * range) >> 64);
    };
    switch (GetParam()) {
      case Derivation::kDoubleHashing:
        return [f = IndexFamily(k, range, seed)](std::uint64_t key,
                                                 std::uint64_t* out) {
          f.indices(key, std::span<std::uint64_t>(out, f.k()));
        };
      case Derivation::kIndependentXxh64:
        return [=](std::uint64_t key, std::uint64_t* out) {
          for (std::size_t i = 0; i < k; ++i) {
            out[i] = reduce(
                xxh64(as_bytes(key), seed + 0x9e3779b97f4a7c15ULL * (i + 1)));
          }
        };
      case Derivation::kTabulation: {
        const auto t1 = std::make_shared<TabulationHash64>(seed);
        const auto t2 = std::make_shared<TabulationHash64>(fmix64(seed + 1));
        return [=](std::uint64_t key, std::uint64_t* out) {
          std::uint64_t acc = (*t1)(key ^ seed);
          const std::uint64_t step = (*t2)(key ^ seed) | 1u;
          for (std::size_t i = 0; i < k; ++i, acc += step) {
            out[i] = reduce(acc);
          }
        };
      }
    }
    return {};
  }
};

TEST_P(IndexFamilyStrategyTest, DistributesUniformly) {
  // Chi-squared-ish check: bucket 64k keys × k indices into 256 cells.
  constexpr std::uint64_t kRange = 256;
  constexpr std::size_t kK = 4;
  const auto indices = family(kK, kRange, /*seed=*/11);
  std::vector<std::uint64_t> counts(kRange, 0);
  constexpr std::uint64_t kKeys = 1 << 16;
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    std::uint64_t idx[kK];
    indices(key, idx);
    for (std::uint64_t v : idx) ++counts[static_cast<std::size_t>(v)];
  }
  const double expected = static_cast<double>(kKeys * kK) / kRange;
  double chi2 = 0;
  for (std::uint64_t c : counts) {
    const double d = static_cast<double>(c) - expected;
    chi2 += d * d / expected;
  }
  // 255 dof: mean 255, std ~22.6; 400 is ~6 sigma.
  EXPECT_LT(chi2, 400.0) << "derivation produced a skewed distribution";
}

TEST_P(IndexFamilyStrategyTest, DifferentSeedsDecorrelate) {
  const auto f1 = family(6, 1u << 20, 1);
  const auto f2 = family(6, 1u << 20, 2);
  int matches = 0;
  for (std::uint64_t key = 0; key < 1000; ++key) {
    std::uint64_t a[6], b[6];
    f1(key, a);
    f2(key, b);
    for (int i = 0; i < 6; ++i) matches += (a[i] == b[i]);
  }
  EXPECT_LT(matches, 10);  // 6000 comparisons, ~0.006 expected by chance
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, IndexFamilyStrategyTest,
                         ::testing::Values(Derivation::kDoubleHashing,
                                           Derivation::kIndependentXxh64,
                                           Derivation::kTabulation));

// Theorem 1/2 end-to-end through the batch hash path: a heavy-tailed Zipf
// stream (the realistic click-fraud workload) batched through offer_batch
// must produce ZERO false negatives against the validity oracle.
TEST(SimdZeroFalseNegatives, GbfAndTbfOnZipfThroughBatchPath) {
  stream::Rng rng(314159);
  const stream::ZipfSampler zipf(4096, 1.1);
  std::vector<std::uint64_t> ids(30000);
  for (auto& id : ids) id = 0xC11C'0000'0000ULL + zipf.sample(rng);

  {
    core::GroupBloomFilter gbf(core::WindowSpec::jumping_count(2048, 8),
                               {.bits_per_subfilter = 1 << 15,
                                .hash_count = 6});
    analysis::JumpingOracle oracle(2048, 8);
    constexpr std::size_t kBatch = 256;
    bool buf[kBatch];
    for (std::size_t off = 0; off < ids.size(); off += kBatch) {
      const std::size_t n = std::min(kBatch, ids.size() - off);
      gbf.offer_batch(std::span<const core::ClickId>(ids.data() + off, n),
                      std::span<bool>(buf, n));
      for (std::size_t j = 0; j < n; ++j) {
        const bool duplicate = buf[j];
        if (oracle.contains_valid(ids[off + j])) {
          ASSERT_TRUE(duplicate) << "GBF false negative at " << off + j;
        }
        oracle.record(ids[off + j], !duplicate, 0);
      }
    }
  }
  {
    core::TimingBloomFilter tbf(core::WindowSpec::sliding_count(2048),
                                {.entries = 1 << 15, .hash_count = 6});
    analysis::SlidingOracle oracle(2048);
    constexpr std::size_t kBatch = 256;
    bool buf[kBatch];
    for (std::size_t off = 0; off < ids.size(); off += kBatch) {
      const std::size_t n = std::min(kBatch, ids.size() - off);
      tbf.offer_batch(std::span<const core::ClickId>(ids.data() + off, n),
                      std::span<bool>(buf, n));
      for (std::size_t j = 0; j < n; ++j) {
        const bool duplicate = buf[j];
        if (oracle.contains_valid(ids[off + j])) {
          ASSERT_TRUE(duplicate) << "TBF false negative at " << off + j;
        }
        oracle.record(ids[off + j], !duplicate, 0);
      }
    }
  }
}

}  // namespace
}  // namespace ppc::hashing
