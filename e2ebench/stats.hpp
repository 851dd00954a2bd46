// Order statistics for repeated measurements: every timing the benchmark
// reports is a median (with quartiles and the sample count), never a
// single pass or a minimum.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace e2e {

struct Summary {
  std::size_t n = 0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

/// Value at quantile `p` in [0, 1] of an ascending sample, interpolating
/// linearly between neighbouring order statistics (0 for an empty sample).
inline double quantile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double pos = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

/// num / den, or 0 when there is nothing to divide by.
inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

inline Summary summarize(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return {values.size(), quantile_sorted(values, 0.25),
          quantile_sorted(values, 0.5), quantile_sorted(values, 0.75)};
}

}  // namespace e2e
