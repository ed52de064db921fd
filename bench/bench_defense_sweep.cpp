// Defense-evaluation sweep (extension of the paper's conclusion), two
// parts:
//
//  1. Trust-band operating points x HT placements through
//     core::DefenseSweep (detection + false positives + latency + Q under
//     guard). The detection arm records one request trace per placement
//     and replays every operating point offline -- simulations scale with
//     placements, not with the detector grid.
//  2. A dense stealthy-Trojan ROC sweep: duty-cycle period x modification
//     factor x trust band x detector kind (self-EWMA vs cohort-median).
//
// Thin formatter over the registry's "defense-roc" scenario; the sweep
// axes live in src/scenario/registry.cpp and the execution in
// src/scenario/runner.cpp. Simulation counts and record/replay timings
// are written to a BENCH_defense_sweep.json artifact (timings also to
// stderr); stdout is byte-identical at any thread count.
//
//   HTPB_QUICK=1   fewer operating points / placements / dynamics cells
//   HTPB_THREADS   caps the sweep pool
#include <cstdio>
#include <cstring>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace htpb;
  const char* json_path = "BENCH_defense_sweep.json";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
  }

  const json::Value result = bench::run_registry_scenario("defense-roc");
  const json::Object& root = result.as_object();
  const json::Object& curve = root.find("curve")->as_object();
  const json::Object& roc = root.find("roc")->as_object();
  const json::Object& timing = root.find("timing")->as_object();

  // Thread count to stderr so stdout is byte-identical at any pool size.
  std::fprintf(stderr, "(%lld operating points x %lld placements, %lld "
               "threads)\n",
               static_cast<long long>(
                   curve.find("operating_points")->as_int()),
               static_cast<long long>(curve.find("placements")->as_int()),
               static_cast<long long>(root.find("threads")->as_int()));
  std::printf("%-13s | %8s %8s %8s | %8s %8s | %8s %8s\n", "band [lo,hi]",
              "detect", "victims", "boosted", "falsePos", "latency",
              "Q(plain)", "Q(guard)");
  for (const json::Value& point : curve.find("points")->as_array()) {
    const json::Object& pt = point.as_object();
    std::printf(
        "[%4.2f, %4.2f] | %7.1f%% %7.1f%% %7.1f%% | %7.1f%% %8.1f | "
        "%8.3f %8.3f\n",
        pt.find("low")->as_double(), pt.find("high")->as_double(),
        pt.find("detection_rate")->as_double() * 100.0,
        pt.find("victim_flag_rate")->as_double() * 100.0,
        pt.find("attacker_flag_rate")->as_double() * 100.0,
        pt.find("false_positive_rate")->as_double() * 100.0,
        pt.find("mean_detection_latency")->as_double(),
        pt.find("mean_q_plain")->as_double(),
        pt.find("mean_q_guarded")->as_double());
  }
  std::printf(
      "\n(detect = distinct flagged cores / monitored cores, mean over\n"
      "placements; latency = epochs from power-on to the first confirmed\n"
      "flag; Q(guard) = residual attack effect with the GuardedBudgeter\n"
      "clamping requests into the same trust band)\n");

  // ROC tables: detect and fp per (period, factor, kind), bands in the
  // registered tight -> loose order.
  const json::Array& roc_points = roc.find("points")->as_array();
  std::printf(
      "\nROC sweep -- duty-cycle period x modification factor x band x "
      "detector kind\n");
  std::printf("(period 0 = always-on attack live from power-on; detect/fp "
              "per band, tight -> loose)\n");
  // Walk the distinct (period, factor, kind) triples in point order; the
  // runner emits the grid ordered by dynamics cell then detector.
  for (std::size_t i = 0; i < roc_points.size();) {
    const json::Object& first = roc_points[i].as_object();
    const long long period = first.find("period")->as_int();
    const double factor = first.find("factor")->as_double();
    // Points of one dynamics cell, grouped ewma-first then cohort (the
    // runner's detector-grid order).
    for (const char* kind : {"ewma", "cohort"}) {
      std::printf("period=%lld factor=%.2f | %-6s detect:", period, factor,
                  kind);
      for (const json::Value& point : roc_points) {
        const json::Object& pt = point.as_object();
        if (pt.find("period")->as_int() == period &&
            pt.find("factor")->as_double() == factor &&
            pt.find("kind")->as_string() == kind) {
          std::printf(" %5.1f%%", pt.find("detect")->as_double() * 100.0);
        }
      }
      std::printf("  fp:");
      for (const json::Value& point : roc_points) {
        const json::Object& pt = point.as_object();
        if (pt.find("period")->as_int() == period &&
            pt.find("factor")->as_double() == factor &&
            pt.find("kind")->as_string() == kind) {
          std::printf(" %5.1f%%", pt.find("fp")->as_double() * 100.0);
        }
      }
      std::printf("\n");
    }
    // Skip past this dynamics cell (detector grid = 2 kinds x bands).
    const std::size_t grid =
        static_cast<std::size_t>(roc.find("detector_grid")->as_int());
    i += grid;
  }
  std::printf(
      "\n(the self-EWMA goes blind at period=0 -- its history anchors to\n"
      "the attacked level -- while the cohort detector keeps catching\n"
      "attenuated minorities; high factors dodge loose bands entirely:\n"
      "the stealth frontier this sweep maps)\n");

  // The cost-shape evidence: simulations scale with placements and
  // dynamics cells, never with the detector grid.
  std::fprintf(stderr,
               "curve: %lld sims in %.2fs | ROC: %lld sims (%lld dynamics x "
               "%lld placements) + %lld replays of a %lld-detector grid, "
               "record %.2fs replay %.3fs\n",
               static_cast<long long>(curve.find("simulations")->as_int()),
               timing.find("curve_seconds")->as_double(),
               static_cast<long long>(roc.find("simulations")->as_int()),
               static_cast<long long>(roc.find("dynamics_cells")->as_int()),
               static_cast<long long>(roc.find("placements")->as_int()),
               static_cast<long long>(roc.find("replays")->as_int()),
               static_cast<long long>(roc.find("detector_grid")->as_int()),
               timing.find("record_seconds")->as_double(),
               timing.find("replay_seconds")->as_double());

  // JSON artifact (nightly trend tracking): same top-level keys as ever,
  // assembled through the shared common/json emitter.
  json::Object artifact;
  artifact["benchmark"] = json::Value("defense_sweep");
  artifact["quick"] = json::Value(bench::quick_mode() ? 1 : 0);
  {
    json::Object c;
    c["operating_points"] = *curve.find("operating_points");
    c["placements"] = *curve.find("placements");
    c["simulations"] = *curve.find("simulations");
    c["seconds"] = *timing.find("curve_seconds");
    artifact["curve"] = json::Value(std::move(c));
  }
  {
    json::Object r;
    r["dynamics_cells"] = *roc.find("dynamics_cells");
    r["placements"] = *roc.find("placements");
    r["detector_grid"] = *roc.find("detector_grid");
    r["simulations"] = *roc.find("simulations");
    r["replays"] = *roc.find("replays");
    r["record_seconds"] = *timing.find("record_seconds");
    r["replay_seconds"] = *timing.find("replay_seconds");
    r["points"] = *roc.find("points");
    artifact["roc"] = json::Value(std::move(r));
  }
  try {
    json::dump_file(json::Value(std::move(artifact)), json_path);
    std::fprintf(stderr, "wrote %s\n", json_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
  }
  return 0;
}
