// Minimal vendored timing harness for the hot-path benches: wall-clock
// measurement, cycles/sec reporting, a JSON emitter (through the shared
// common/json utility) and a tolerance-based comparison against a
// checked-in baseline JSON. No external dependency (ROADMAP:
// libbenchmark-dev is absent on some machines, so the perf trajectory
// must not hinge on it).
#pragma once

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace htpb::bench {

[[nodiscard]] inline double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

/// The command line shared by the harness benches; returns exit code 2.
inline int perf_usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--quick] [--json <path>] [--baseline <path>] "
               "[--max-regression <frac>]\n",
               argv0);
  return 2;
}

/// Strict --max-regression parse: the whole text must be a number in the
/// open interval (0, 1). Anything else -- garbage, trailing junk, 0, 1,
/// negatives, NaN -- prints the usage and exits 2 rather than gating CI
/// against a silently wrong tolerance.
[[nodiscard]] inline double parse_max_regression(const char* text,
                                                 const char* argv0) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (errno != 0 || end == text || *end != '\0' || !(v > 0.0 && v < 1.0)) {
    std::fprintf(stderr,
                 "%s: --max-regression expects a fraction in (0, 1), got"
                 " \"%s\"\n",
                 argv0, text);
    std::exit(perf_usage(argv0));
  }
  return v;
}

/// One measured workload. `cycles_per_sec` is the figure of merit; the
/// counter fields double as a determinism cross-check (same seed ->
/// same delivered count, whatever the core's internals look like).
struct PerfResult {
  std::string name;
  std::uint64_t sim_cycles = 0;
  double seconds = 0.0;
  double cycles_per_sec = 0.0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t flits_forwarded = 0;
  double avg_latency = 0.0;
};

/// Times `fn` (which simulates a fixed number of cycles) `reps` times and
/// keeps the fastest run -- the standard trick to shed scheduler noise
/// without statistics machinery. Every rep is a cold start (callers
/// rebuild their network inside `fn`), so single-rep quick mode measures
/// cold-start cost too; regression gates must compare like with like.
template <typename Fn>
[[nodiscard]] inline double best_seconds_of(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_seconds();
    fn();
    const double dt = now_seconds() - t0;
    if (dt < best) best = dt;
  }
  return best;
}

class PerfReport {
 public:
  /// `benchmark` names the suite in the JSON header so baseline files
  /// are self-identifying (default keeps existing NoC baselines valid).
  explicit PerfReport(std::string benchmark = "noc_hotpath")
      : benchmark_(std::move(benchmark)) {}

  void add(PerfResult r) {
    std::printf("  %-28s %12.0f cycles/s  (%llu cycles, %.3fs, "
                "%llu pkts delivered)\n",
                r.name.c_str(), r.cycles_per_sec,
                static_cast<unsigned long long>(r.sim_cycles), r.seconds,
                static_cast<unsigned long long>(r.packets_delivered));
    results_.push_back(std::move(r));
  }

  [[nodiscard]] const std::vector<PerfResult>& results() const noexcept {
    return results_;
  }

  bool write_json(const std::string& path) const {
    json::Object root;
    root["benchmark"] = json::Value(benchmark_);
    json::Array results;
    for (const PerfResult& r : results_) {
      json::Object row;
      row["name"] = json::Value(r.name);
      row["cycles_per_sec"] = json::Value(
          static_cast<long long>(std::llround(r.cycles_per_sec)));
      row["sim_cycles"] = json::Value(static_cast<long long>(r.sim_cycles));
      row["seconds"] = json::Value(r.seconds);
      row["packets_delivered"] =
          json::Value(static_cast<long long>(r.packets_delivered));
      row["flits_forwarded"] =
          json::Value(static_cast<long long>(r.flits_forwarded));
      row["avg_latency"] = json::Value(r.avg_latency);
      results.push_back(json::Value(std::move(row)));
    }
    root["results"] = json::Value(std::move(results));
    try {
      json::dump_file(json::Value(std::move(root)), path);
    } catch (const std::exception&) {
      return false;
    }
    return true;
  }

  /// Compares against a baseline emitted by write_json. Returns true when
  /// every workload present in both files is within `max_regression`
  /// (e.g. 0.25 = tolerate down to 75% of baseline cycles/sec). Prints a
  /// per-workload verdict; unknown names are ignored so baselines and
  /// benches can evolve independently.
  bool check_against(const std::string& baseline_path,
                     double max_regression) const {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "perf_harness: cannot open baseline %s\n",
                   baseline_path.c_str());
      return false;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();

    bool ok = true;
    int compared = 0;
    for (const PerfResult& r : results_) {
      double base = 0.0;
      if (!find_baseline_rate(text, r.name, &base) || base <= 0.0) continue;
      ++compared;
      const double ratio = r.cycles_per_sec / base;
      const bool pass = ratio >= 1.0 - max_regression;
      std::printf("  %-28s baseline %12.0f  now %12.0f  (%+.1f%%) %s\n",
                  r.name.c_str(), base, r.cycles_per_sec,
                  (ratio - 1.0) * 100.0, pass ? "ok" : "REGRESSION");
      ok = ok && pass;
    }
    if (compared == 0) {
      std::fprintf(stderr,
                   "perf_harness: no overlapping workloads with %s\n",
                   baseline_path.c_str());
      return false;
    }
    return ok;
  }

 private:
  /// Tiny special-purpose scan of our own flat JSON: finds the object
  /// containing `"name": "<name>"` and reads its cycles_per_sec. Not a
  /// general JSON parser and does not pretend to be.
  static bool find_baseline_rate(const std::string& text,
                                 const std::string& name, double* out) {
    const std::string key = "\"name\": \"" + name + "\"";
    const std::size_t at = text.find(key);
    if (at == std::string::npos) return false;
    const std::string rate_key = "\"cycles_per_sec\": ";
    const std::size_t rate_at = text.find(rate_key, at);
    if (rate_at == std::string::npos) return false;
    *out = std::strtod(text.c_str() + rate_at + rate_key.size(), nullptr);
    return true;
  }

  std::string benchmark_;
  std::vector<PerfResult> results_;
};

}  // namespace htpb::bench
