#include "scenario/cells.hpp"

#include <cstdio>
#include <stdexcept>

#include "scenario/kinds.hpp"
#include "scenario/runner.hpp"

namespace htpb::scenario {

std::vector<CellPlan> expand_cells(const ScenarioSpec& resolved) {
  // A cell carries no quick overlay: with_quick already ran, and a worker
  // re-applying it would double the trim.
  ScenarioSpec base = resolved;
  base.quick = json::Value();
  std::vector<CellPlan> cells = kind_row(resolved.kind).split(base);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    cells[i].spec.validate();
    // The slug behind the index: ids are unique and sort in cell order.
    char prefix[24];
    std::snprintf(prefix, sizeof(prefix), "c%03zu-", i);
    cells[i].id.insert(0, prefix);
  }
  return cells;
}

json::Value merge_cell_results(const ScenarioSpec& resolved, bool quick,
                               int threads,
                               const std::vector<json::Value>& cell_results) {
  const std::size_t expected = expand_cells(resolved).size();
  if (expected != cell_results.size()) {
    throw std::runtime_error(
        "merge_cell_results: spec expands to " + std::to_string(expected) +
        " cells but " + std::to_string(cell_results.size()) +
        " results were given");
  }
  const json::Object envelope = result_envelope(resolved, quick, threads);
  json::Object merged = envelope;
  for (std::size_t i = 0; i < cell_results.size(); ++i) {
    const json::Value& cell = cell_results[i];
    if (!cell.is_object()) continue;  // a failed cell leaves a hole
    for (const auto& [key, value] : cell.as_object()) {
      if (key == "timing" || envelope.contains(key)) continue;
      if (value.is_array()) {
        json::Value& slot = merged[key];
        if (slot.is_null()) slot = json::Value(json::Array{});
        if (!slot.is_array()) continue;
        json::Array& dst = slot.as_array();
        dst.insert(dst.end(), value.as_array().begin(),
                   value.as_array().end());
      } else if (i == 0) {
        merged[key] = value;
      }
    }
  }
  return json::Value(std::move(merged));
}

}  // namespace htpb::scenario
