// Deterministic, fast pseudo-random number generation (xoshiro256**).
//
// Every stochastic decision in the simulator draws from an explicitly
// seeded Rng so experiments are exactly reproducible; there is no use of
// std::random_device or global generators anywhere in the code base.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace htpb {

/// SplitMix64 finalizer (Steele, Lea & Flood). Bijective 64-bit mixing:
/// used to expand seeds into generator state and to derive independent
/// per-index streams (ParallelSweepRunner::stream_rng).
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// xoshiro256** by Blackman & Vigna (public domain reference algorithm),
/// seeded through SplitMix64 so that any 64-bit seed yields a good state.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9E3779B97F4A7C15ULL;
      word = splitmix64(x);
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, bound) without modulo bias (Lemire's method).
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) noexcept {
    if (bound == 0) return 0;
    __uint128_t m = static_cast<__uint128_t>((*this)()) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        m = static_cast<__uint128_t>((*this)()) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Bernoulli trial with success probability p.
  [[nodiscard]] bool chance(double p) noexcept { return uniform() < p; }

  /// Fisher-Yates shuffle of a span.
  template <typename T>
  void shuffle(std::span<T> items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Sample k distinct values from [0, n) (k <= n), in random order.
  [[nodiscard]] std::vector<std::uint32_t> sample_without_replacement(
      std::uint32_t n, std::uint32_t k);

  /// Derive an independent child stream (for per-node generators).
  // htpb-lint: allow(seed-provenance) child stream derives from the parent's already-seeded stream
  [[nodiscard]] Rng fork() noexcept { return Rng((*this)()); }

  /// Raw generator state, for checkpointing. A restored stream continues
  /// exactly where the saved one left off.
  [[nodiscard]] std::array<std::uint64_t, 4> state() const noexcept {
    return {state_[0], state_[1], state_[2], state_[3]};
  }
  void set_state(const std::array<std::uint64_t, 4>& s) noexcept {
    for (int i = 0; i < 4; ++i) state_[i] = s[static_cast<std::size_t>(i)];
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4] = {};
};

}  // namespace htpb
