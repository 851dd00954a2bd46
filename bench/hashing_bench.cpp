// Hash-substrate microbenchmarks: raw hash throughput and the cost of
// IndexFamily's index derivation (two fmix64 chains + Kirsch–Mitzenmacher
// double hashing), per key and batched.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "hashing/fnv.hpp"
#include "hashing/index_family.hpp"
#include "hashing/murmur3.hpp"

namespace {

using namespace ppc::hashing;

std::string payload(std::size_t size) { return std::string(size, 'x'); }

void BM_Murmur3(benchmark::State& state) {
  const std::string data = payload(static_cast<std::size_t>(state.range(0)));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(murmur3_x64_128(data, seed++));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Murmur3)->Arg(8)->Arg(40)->Arg(256)->Arg(4096);

void BM_Fnv1a(benchmark::State& state) {
  const std::string data = payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fnv1a64(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Fnv1a)->Arg(8)->Arg(40)->Arg(256);

void BM_IndexFamily(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  IndexFamily family(k, 1u << 20, 7);
  std::uint64_t key = 0;
  std::uint64_t idx[kMaxHashFunctions];
  for (auto _ : state) {
    family.indices(key++, std::span<std::uint64_t>(idx, k));
    benchmark::DoNotOptimize(idx[0]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IndexFamily)->Arg(4)->Arg(10)->Arg(20);

// The batched hash stage: what the offer_batch rings pay per key. Compare
// against BM_IndexFamily (per-key calls) for the loop-overhead saving.
void BM_IndicesBatch(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  IndexFamily family(k, 1u << 20, 7);
  constexpr std::size_t kKeys = 4096;
  std::vector<std::uint64_t> keys(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) keys[i] = i * 0x9e3779b97f4a7c15ull;
  std::vector<std::uint64_t> out(kKeys * k);
  for (auto _ : state) {
    family.indices_batch(keys, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kKeys));
}
BENCHMARK(BM_IndicesBatch)->Arg(4)->Arg(7);

}  // namespace

BENCHMARK_MAIN();
