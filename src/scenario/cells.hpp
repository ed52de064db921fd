// Campaign cell expansion for the fleet service: slice a resolved
// ScenarioSpec along its outermost *independent* sweep axis into
// self-contained single-slice specs, and reassemble the slice results
// into the exact tree run_scenario would have produced in one process.
//
// The split axis per kind follows the runner's stochastic contract
// (scenario/runner.cpp documents each): only axes whose RNG streams are
// value-keyed -- or re-keyable by rebasing the cell's seed -- are split,
// so `merge_cell_results` over the cells is bit-identical (minus the
// "timing" object) to a single `run_scenario` of the full spec.
//
//   kInfectionVsHtCount       cell per (arm, ht)   Rng(seed + s*77 + ht)
//   kInfectionVsDistribution  cell per (div, size) Rng(seed + s*13 + size)
//                             Inside a cell the runner fans the legs
//                             (gm x seed; center, corner, random seeds)
//                             flat across its pool. Each leg's stream is
//                             value-keyed and the fleet still splits per
//                             (arm, ht) / (div, size), so split/merge
//                             stays bit-identical.
//   kAttackEffect             cell per mix         serial Rng(seed) per mix
//   kPlacementStudy           cell per mix         Rng(seed + mix_i): the
//                             cell's seed is REBASED to seed + mix_i so
//                             its local index 0 lands on the same stream
//   kDefenseEvaluation        cell per mix
//   kBudgeterAblation         cell per budgeter
//   kDefenseClosedLoop        cell per placement (the adaptive and
//                             response axes are runner-internal)
//   everything else           one cell (kDefenseSweep's record-once/
//                             replay-many trace reuse and its
//                             simulation counts, and
//                             kAttackComparison's shared clean-arm state,
//                             are not shardable without changing output)
#pragma once

#include <string>
#include <vector>

#include "common/json.hpp"
#include "scenario/spec.hpp"

namespace htpb::scenario {

/// One fleet cell: a stable id (embeds the cell index, so ids are unique
/// and order-preserving) and the self-contained spec for that slice.
struct CellPlan {
  std::string id;
  ScenarioSpec spec;
};

/// Expands `resolved` (post-with_quick, post-overrides, validated) into
/// its cell list. Every cell spec validates and carries no quick overlay.
/// Single-cell kinds return one cell holding the spec verbatim.
[[nodiscard]] std::vector<CellPlan> expand_cells(const ScenarioSpec& resolved);

/// Reassembles cell results (the `htpb_run --json` envelopes, in
/// expand_cells order) into the single-run envelope: scenario, kind,
/// quick, seed, threads, then the merged payload. No "timing" member --
/// the caller appends its own. Failed cells are passed as null and their
/// slices are skipped, so the merge degrades gracefully instead of
/// throwing; a size mismatch with expand_cells(resolved) throws.
[[nodiscard]] json::Value merge_cell_results(
    const ScenarioSpec& resolved, bool quick, int threads,
    const std::vector<json::Value>& cell_results);

}  // namespace htpb::scenario
