// The checked-in scenario registry: every paper experiment (Figs. 3-6,
// Tables I-III, Sec. III-D, Sec. V-C) and the defense extensions, each as
// a named, serializable ScenarioSpec. `htpb_run --scenario <name>`
// starts here; `htpb_run --list` prints it.
//
// Registered names (tests/scenario/registry_test.cpp asserts the set):
//   fig3, fig4, fig5 (Figs. 5 and 6: one sweep, both readouts), table1,
//   table2, secIIID-area-power, secVC-placement, defense-roc,
//   defense-evaluation, attack-comparison, budgeter-ablation,
//   defense-closed-loop
#pragma once

#include <string_view>
#include <vector>

#include "scenario/spec.hpp"

namespace htpb::scenario {

/// All registered scenarios, in presentation order. Built once, validated
/// at construction (a spec that fails validate() is a bug, caught by the
/// registry test and by first use).
[[nodiscard]] const std::vector<ScenarioSpec>& registry();

/// Lookup by name; nullptr when unknown.
[[nodiscard]] const ScenarioSpec* find_scenario(std::string_view name);

/// Lookup by name; throws std::invalid_argument listing the known names.
[[nodiscard]] const ScenarioSpec& scenario_or_throw(std::string_view name);

}  // namespace htpb::scenario
