// Executes a ScenarioSpec through the experiment layer (AttackCampaign,
// which builds every simulated chip, PlacementOptimizer, detector trace
// replay) and reduces the raw outcomes to one JSON result tree per
// scenario kind.
//
// Determinism contract: for a fixed (spec, options) pair the returned
// tree is bit-identical across runs and thread counts, except for the
// "timing" object (wall-clock seconds) -- consumers that compare results
// null that key out first. Every stochastic choice derives from
// spec.seed (plus loop indices) exactly the way the legacy bench mains
// derived theirs from their hard-coded constants, so a registry scenario
// reproduces its pre-registry bench bit for bit
// (tests/scenario/runner_test.cpp locks fig3 and defense-roc).
#pragma once

#include <cstdint>
#include <optional>

#include "common/json.hpp"
#include "power/request_trace.hpp"
#include "scenario/spec.hpp"

namespace htpb::scenario {

struct RunOptions {
  /// Apply the spec's quick overlay (`htpb_run --quick`).
  bool quick = false;
  /// ParallelSweepRunner pool size; 0 = HTPB_THREADS, else the core
  /// count. An execution setting, not part of the experiment: the spec
  /// has no thread count, and the result tree is the same at any size.
  int threads = 0;
  /// Overrides BOTH spec.seed and spec.system.seed: one knob reseeds the
  /// whole experiment (placements and per-node workload streams alike).
  std::optional<std::uint64_t> seed;
};

/// The spec with options folded in (quick overlay applied, seed override
/// written through); what run_scenario actually executes.
[[nodiscard]] ScenarioSpec resolve(const ScenarioSpec& spec,
                                   const RunOptions& opts);

/// The keys every result tree opens with, in order: scenario, kind,
/// quick, seed, and threads (the pool size; `threads` <= 0 resolves as
/// ParallelSweepRunner does). Every other key but "timing" is payload.
[[nodiscard]] json::Object result_envelope(const ScenarioSpec& resolved,
                                           bool quick, int threads);

/// Runs the scenario and returns its result tree: result_envelope, then
/// the kind-specific payload, then "timing": {...seconds...}.
/// Throws on an invalid spec.
[[nodiscard]] json::Value run_scenario(const ScenarioSpec& spec,
                                       const RunOptions& opts = {});

/// The scenario's canonical attacked campaign for trace tooling: the
/// spec's system/workload/trojan/epoch sections (first mix when several
/// are swept, detector detached) against its first declared placement
/// (axes.placements.front(), else ClusterSpec{}: 8 Trojans around the
/// manager). `htpb_run --record-trace` simulates it once and
/// RequestTrace::save()s the stream.
[[nodiscard]] power::RequestTrace record_scenario_trace(
    const ScenarioSpec& spec, const RunOptions& opts = {});

/// Replays a recorded (or load()ed) trace through the spec's detector
/// grid -- spec.detector when set, plus axes.bands x {ewma, cohort} --
/// with zero simulation: the ROADMAP's iterate-on-detectors-from-files
/// loop. Returns one report summary per operating point.
[[nodiscard]] json::Value replay_scenario_detectors(
    const ScenarioSpec& spec, const power::RequestTrace& trace,
    const RunOptions& opts = {});

}  // namespace htpb::scenario
