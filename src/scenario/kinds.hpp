// The kind table: one row per ScenarioKind, the one home of each
// experiment family's schema name, axes rules, run function and fleet
// split. The rows (kKinds) sit in scenario/runner.cpp with the run
// functions; a static_assert holds them to the enum.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "core/parallel_sweep.hpp"
#include "scenario/cells.hpp"
#include "scenario/spec.hpp"

namespace htpb::scenario {

struct KindRow {
  ScenarioKind kind;
  const char* name;  ///< the schema name, read by to_string
  /// Run by ScenarioSpec::validate() after the shared sections.
  void (*validate_axes)(const ScenarioSpec& spec);
  /// The payload run_scenario wraps; a run may add entries to its third
  /// argument, the result's `timing`.
  json::Value (*run)(const ScenarioSpec&, const core::ParallelSweepRunner&,
                     json::Object&);
  /// `base` sliced into cells, each id its slug; expand_cells numbers
  /// and validates them.
  std::vector<CellPlan> (*split)(const ScenarioSpec& base);
};

/// Throws std::invalid_argument past the last kind.
[[nodiscard]] const KindRow& kind_row(ScenarioKind kind);

// Validation helpers (spec.cpp) for ScenarioSpec::validate() and the rows.

/// Throws std::invalid_argument "scenario \"<name>\": <what>".
[[noreturn]] void invalid(const std::string& name, const std::string& what);

/// A std::invalid_argument from `check` becomes `spec`'s error: `key` +
/// its message, with campaign members renamed to their spec keys.
void check_key(const ScenarioSpec& spec, std::string_view key,
               const std::function<void()>& check);

void check_mixes(const std::string& name,
                 const std::vector<std::string>& mixes);

}  // namespace htpb::scenario
