#include "core/detector_factory.hpp"

#include <stdexcept>

#include "core/age_partitioned_bloom_filter.hpp"
#include "core/group_bloom_filter.hpp"
#include "core/timing_bloom_filter.hpp"

namespace ppc::core {

namespace {

std::unique_ptr<DuplicateDetector> make_gbf(const WindowSpec& window,
                                            const DetectorBudget& budget,
                                            std::uint32_t q) {
  const std::uint64_t m = budget.total_memory_bits / (q + 1);
  if (m == 0) {
    throw std::invalid_argument(
        "make_detector: memory budget below one bit per sub-filter");
  }
  GroupBloomFilter::Options opts;
  opts.bits_per_subfilter = m;
  opts.hash_count = budget.hash_count;
  opts.seed = budget.seed;
  return std::make_unique<GroupBloomFilter>(window, opts);
}

std::unique_ptr<DuplicateDetector> make_tbf(const WindowSpec& window,
                                            const DetectorBudget& budget) {
  // Entry width comes from the filter's OWN geometry resolution — the one
  // place wrap/width is computed — so table sizing can never diverge from
  // the wrap space the filter actually allocates.
  const TimingBloomFilter::Geometry geo =
      TimingBloomFilter::resolve_geometry(window, budget.tbf_c);
  const std::uint64_t entries = budget.total_memory_bits / geo.entry_bits;
  if (entries == 0) {
    throw std::invalid_argument(
        "make_detector: memory budget below one timestamp entry");
  }
  TimingBloomFilter::Options opts;
  opts.entries = entries;
  opts.hash_count = budget.hash_count;
  opts.c = budget.tbf_c;
  opts.seed = budget.seed;
  return std::make_unique<TimingBloomFilter>(window, opts);
}

std::unique_ptr<DuplicateDetector> make_apbf(const WindowSpec& window,
                                             const DetectorBudget& budget) {
  AgePartitionedBloomFilter::Options opts;
  opts.consecutive = budget.apbf_consecutive != 0 ? budget.apbf_consecutive
                                                  : budget.hash_count;
  opts.generations = budget.apbf_generations;
  // Memory splits evenly across the k + l + 1 physical slices (one is the
  // incremental-retirement spare), mirroring GBF's M / (Q+1) discipline.
  const std::uint64_t slices = opts.consecutive + opts.generations + 1;
  const std::uint64_t m = budget.total_memory_bits / slices;
  if (m == 0) {
    throw std::invalid_argument(
        "make_detector: memory budget below one bit per APBF slice");
  }
  opts.bits_per_slice = m;
  opts.seed = budget.seed;
  return std::make_unique<AgePartitionedBloomFilter>(window, opts);
}

}  // namespace

std::unique_ptr<DuplicateDetector> make_detector(const WindowSpec& window,
                                                 const DetectorBudget& budget) {
  window.validate();
  switch (budget.backend) {
    case DetectorBackend::kAuto:
      break;  // window-model dispatch below
    case DetectorBackend::kGbf:
      if (window.kind == WindowKind::kLandmark) {
        WindowSpec as_jumping = window;
        as_jumping.kind = WindowKind::kJumping;
        as_jumping.subwindows = 1;
        return make_gbf(as_jumping, budget, 1);
      }
      return make_gbf(window, budget, window.subwindows);
    case DetectorBackend::kTbf:
      return make_tbf(window, budget);
    case DetectorBackend::kApbf:
      return make_apbf(window, budget);
  }
  switch (window.kind) {
    case WindowKind::kLandmark: {
      WindowSpec as_jumping = window;
      as_jumping.kind = WindowKind::kJumping;
      as_jumping.subwindows = 1;
      return make_gbf(as_jumping, budget, 1);
    }
    case WindowKind::kJumping:
      if (window.subwindows <= budget.max_gbf_subwindows ||
          window.basis == WindowBasis::kTime) {
        return make_gbf(window, budget, window.subwindows);
      }
      return make_tbf(window, budget);
    case WindowKind::kSliding:
      return make_tbf(window, budget);
  }
  throw std::invalid_argument("make_detector: unknown window kind");
}

}  // namespace ppc::core
