// Reading sets of benchmark runs back: the steadiness report --all prints
// over the runs it just made, and the --compare A/B verdicts. Both read
// the metric units, directions and bounds from BENCHMARK.json.
//
// A runs file (BENCH_scenarios.json) holds, per workload, the final JSON
// line of every untraced run ("runs") and every traced run ("traced"),
// each with the run's "details" attached.
#pragma once

#include <map>
#include <string>

#include "common/json.hpp"

namespace scenbench {

struct MetricSpec {
  std::string unit;
  bool lower_is_better = true;
  double bound = 0.0;  ///< end-to-end metrics only
  bool end_to_end = false;
};

[[nodiscard]] std::string default_benchmark_path();

/// The metrics BENCHMARK.json declares, by name.
[[nodiscard]] std::map<std::string, MetricSpec> load_metric_specs(
    const std::string& path);

/// Prints every metric of every workload in `runs` -- median, quartiles
/// and spread against its bound for end-to-end metrics, and whether every
/// count repeated exactly across the traced runs. Returns the number of
/// problems: an incorrect run, a spread over its bound (set-up time
/// excepted), or a count that differs between runs.
[[nodiscard]] int report_runs(const htpb::json::Value& runs,
                              const std::map<std::string, MetricSpec>& specs);

/// A/B report of two runs files, A the parent and B the change: both
/// sides' median and quartiles, the share of pairs (A run i, B run i)
/// that B wins, and a verdict per metric and workload:
///   improved   B wins >= 90% of >= 10 pairs and the medians differ by
///              more than A's interquartile distance;
///   unresolved A's spread is wider than the bound and not every B run
///              beats every A run;
///   worse      B's median is worse than A's by more than the bound;
///   unchanged  otherwise.
/// Counts must be identical (otherwise worse). Per-layer timings have no
/// bound: improved, or worse by the mirror of the improved rule, else
/// unresolved. Returns 1 when any metric is worse, else 0.
[[nodiscard]] int compare_runs(const htpb::json::Value& a,
                               const htpb::json::Value& b,
                               const std::map<std::string, MetricSpec>& specs);

}  // namespace scenbench
