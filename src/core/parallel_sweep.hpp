// Deterministic fan-out of independent experiment evaluations across a
// std::thread pool. Every task is addressed by its index: results land in
// index order and any randomness comes from a per-index Rng stream derived
// from (seed, index) alone, never from the worker that happened to pick the
// task up -- so a sweep returns bit-identical results at 1 and N threads.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"

namespace htpb::core {

class ParallelSweepRunner {
 public:
  /// The pool-size ceiling: HTPB_THREADS is clamped to [1, kMaxThreads]
  /// and htpb_run/htpb_fleet reject a larger --threads.
  static constexpr int kMaxThreads = 4096;

  /// `threads` <= 0 selects `default_threads()`.
  explicit ParallelSweepRunner(int threads = 0);

  [[nodiscard]] int threads() const noexcept { return threads_; }

  /// HTPB_THREADS if set (clamped to >= 1), else the hardware concurrency.
  [[nodiscard]] static int default_threads();

  /// Independent Rng stream for task `index` of a sweep seeded with `seed`.
  /// Depends only on the two arguments, so a task draws the same numbers no
  /// matter which worker runs it or how many workers exist.
  [[nodiscard]] static Rng stream_rng(std::uint64_t seed, std::size_t index);

  /// Evaluates `fn(index)` for every index in [0, count) across the pool
  /// and returns the results in index order. `fn` must not depend on
  /// shared mutable state; the result type must be default-constructible.
  /// If any task throws, the first exception is rethrown after the pool
  /// drains.
  template <typename Fn>
  auto map(std::size_t count, Fn&& fn) const
      -> std::vector<std::invoke_result_t<Fn&, std::size_t>>;

  /// `map` with a per-task Rng stream: evaluates `fn(index, rng)` where
  /// `rng` is `stream_rng(seed, index)`.
  template <typename Fn>
  auto map_streams(std::size_t count, std::uint64_t seed, Fn&& fn) const
      -> std::vector<std::invoke_result_t<Fn&, std::size_t, Rng&>>;

 private:
  int threads_ = 1;
};

template <typename Fn>
auto ParallelSweepRunner::map(std::size_t count, Fn&& fn) const
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  // std::vector<bool> packs results into shared bytes, so concurrent
  // per-index writes would race; return int/char instead.
  static_assert(!std::is_same_v<R, bool>,
                "ParallelSweepRunner::map cannot return bool");
  std::vector<R> results(count);
  const auto workers =
      static_cast<int>(std::min<std::size_t>(count,
                                             static_cast<std::size_t>(threads_)));
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) results[i] = fn(i);
    return results;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mu;
  const auto work = [&]() {
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        results[i] = fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };
  // The calling thread is the first worker, not an idle joiner.
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers - 1));
  for (int t = 1; t < workers; ++t) pool.emplace_back(work);
  work();
  for (auto& th : pool) th.join();
  if (error) std::rethrow_exception(error);
  return results;
}

template <typename Fn>
auto ParallelSweepRunner::map_streams(std::size_t count, std::uint64_t seed,
                                      Fn&& fn) const
    -> std::vector<std::invoke_result_t<Fn&, std::size_t, Rng&>> {
  return map(count, [&](std::size_t i) {
    Rng rng = stream_rng(seed, i);
    return fn(i, rng);
  });
}

}  // namespace htpb::core
