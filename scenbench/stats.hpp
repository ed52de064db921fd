// Order statistics for the scenario benchmark: the median and quartiles
// of a sample, computed the way Python's statistics.quantiles(n=4)
// (method "exclusive") computes them, so spreads printed here match the
// spreads anyone recomputes from the JSON.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace scenbench {

struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double min = 0.0;
  double max = 0.0;

  /// Interquartile distance as a share of the median (0 when median is 0).
  [[nodiscard]] double spread() const {
    return median == 0.0 ? 0.0 : (q3 - q1) / median;
  }
};

[[nodiscard]] inline Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.min = v.front();
  s.max = v.back();
  const std::size_t n = v.size();
  s.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  if (n < 2) {
    s.q1 = s.q3 = s.median;
    return s;
  }
  // statistics.quantiles, exclusive method: cut point i of 4 sits at
  // 1-based position i * (n + 1) / 4, interpolated between neighbours
  // (and extrapolated past the ends for tiny samples, as Python does).
  const auto cut = [&](long i) {
    const long len = static_cast<long>(n);
    const long m = len + 1;
    const long j = std::clamp(i * m / 4, 1L, len - 1);
    const long delta = i * m - j * 4;
    const auto at = [&](long k) { return v[static_cast<std::size_t>(k)]; };
    return (at(j - 1) * static_cast<double>(4 - delta) +
            at(j) * static_cast<double>(delta)) /
           4.0;
  };
  s.q1 = cut(1);
  s.q3 = cut(3);
  return s;
}

}  // namespace scenbench
