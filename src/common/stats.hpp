// Streaming statistics helpers used by NoC latency tracking, campaign
// result aggregation and the regression diagnostics.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace htpb {

/// Welford running mean/variance with min/max, O(1) per sample.
class RunningStat {
 public:
  void add(double x) noexcept;
  void merge(const RunningStat& other) noexcept;
  void reset() noexcept { *this = RunningStat{}; }

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(n_); }

  /// Raw accumulator dump/restore, for checkpointing. The raw fields (not
  /// the derived accessors) round-trip so a restored stat continues the
  /// Welford recurrence bit-identically.
  struct Raw {
    std::uint64_t n = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double min = 0.0;
    double max = 0.0;

    template <class S, class F>
    static void fields(S& s, F&& f) {
      f("n", s.n);
      f("mean", s.mean);
      f("m2", s.m2);
      f("min", s.min);
      f("max", s.max);
    }
  };
  [[nodiscard]] Raw raw() const noexcept { return {n_, mean_, m2_, min_, max_}; }
  void set_raw(const Raw& r) noexcept {
    n_ = r.n;
    mean_ = r.mean;
    m2_ = r.m2;
    min_ = r.min;
    max_ = r.max;
  }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-width histogram over [lo, hi) with overflow/underflow buckets.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x) noexcept;
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }
  [[nodiscard]] std::size_t bucket_count() const noexcept { return counts_.size(); }
  [[nodiscard]] std::uint64_t underflow() const noexcept { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }
  /// Value below which the given fraction of samples fall (bucket-resolution).
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] std::string to_string() const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

[[nodiscard]] double mean_of(std::span<const double> xs) noexcept;
[[nodiscard]] double stddev_of(std::span<const double> xs) noexcept;

/// Pearson correlation of two equally sized series (0 if degenerate).
[[nodiscard]] double correlation(std::span<const double> xs,
                                 std::span<const double> ys) noexcept;

}  // namespace htpb
