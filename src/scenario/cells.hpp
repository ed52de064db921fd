// Campaign cell expansion for the fleet service: slice a resolved
// ScenarioSpec along its outermost *independent* sweep axis into
// self-contained single-slice specs, and reassemble the slice results
// into the exact tree run_scenario would have produced in one process.
//
// Each kind's split is its row of the kind table (scenario/kinds.hpp;
// the rows' comments in scenario/runner.cpp say what each splits): only
// axes whose RNG streams are value-keyed -- or re-keyable by rebasing the
// cell's seed -- are split, and each cell slices the outermost array of
// its kind's payload, so `merge_cell_results` over the cells is
// bit-identical (minus the "timing" object) to a single `run_scenario`
// of the full spec.
//
// The merge knows no kind's payload. The merged tree is result_envelope
// (runner.hpp) followed by each payload key in the first surviving cell's
// order: an array is the concatenation of the surviving cells' arrays in
// cell order; any other value is cell 0's, and absent if cell 0 failed.
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
/// expand_cells order) into the single-run tree by the rule above:
/// result_envelope(resolved, quick, threads), then the merged payload. No
/// "timing" member -- the caller appends its own. Failed cells are passed
/// as null and leave holes, so the merge degrades gracefully instead of
/// throwing; a size mismatch with expand_cells(resolved) throws.
[[nodiscard]] json::Value merge_cell_results(
    const ScenarioSpec& resolved, bool quick, int threads,
    const std::vector<json::Value>& cell_results);

}  // namespace htpb::scenario
