#include "common/rng.hpp"

#include <numeric>
#include <utility>

namespace htpb {

std::vector<std::uint32_t> Rng::sample_without_replacement(std::uint32_t n,
                                                           std::uint32_t k) {
  std::vector<std::uint32_t> all(n);
  std::iota(all.begin(), all.end(), 0U);
  if (k > n) k = n;
  // Partial Fisher-Yates: first k positions become the sample.
  for (std::uint32_t i = 0; i < k; ++i) {
    const auto j =
        i + static_cast<std::uint32_t>(below(static_cast<std::uint64_t>(n - i)));
    std::swap(all[i], all[j]);
  }
  all.resize(k);
  return all;
}

}  // namespace htpb
