#include "core/parallel_sweep.hpp"

#include <cstdlib>

namespace htpb::core {

ParallelSweepRunner::ParallelSweepRunner(int threads)
    : threads_(threads > 0 ? threads : default_threads()) {}

int ParallelSweepRunner::default_threads() {
  if (const char* env = std::getenv("HTPB_THREADS")) {
    // Clamp, as documented: a set-but-unusable value (0, negative,
    // non-numeric, overflowing) means a serial run, not silent fallback
    // to all cores. strtol saturates instead of the UB atoi has.
    const long n = std::strtol(env, nullptr, 10);
    return static_cast<int>(
        std::clamp(n, 1L, static_cast<long>(kMaxThreads)));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

Rng ParallelSweepRunner::stream_rng(std::uint64_t seed, std::size_t index) {
  // SplitMix64 of the index, folded into the base seed. The Rng
  // constructor runs SplitMix64 again over the combined value, so nearby
  // indices still yield well-separated xoshiro states.
  return Rng(seed ^ splitmix64(static_cast<std::uint64_t>(index) +
                               0x9E3779B97F4A7C15ULL));
}

}  // namespace htpb::core
