#include "scenario/cells.hpp"

#include <cstdio>
#include <stdexcept>

#include "power/budgeter.hpp"
#include "scenario/runner.hpp"

namespace htpb::scenario {

namespace {

[[nodiscard]] std::string cell_id(std::size_t index, const std::string& slug) {
  char prefix[16];
  std::snprintf(prefix, sizeof(prefix), "c%03zu", index);
  return std::string(prefix) + "-" + slug;
}

/// A cell spec is the resolved spec with one slice selected and the quick
/// overlay stripped: with_quick already ran, and a worker re-applying it
/// would double the trim.
[[nodiscard]] ScenarioSpec cell_base(const ScenarioSpec& resolved) {
  ScenarioSpec cell = resolved;
  cell.quick = json::Value();
  return cell;
}

}  // namespace

std::vector<CellPlan> expand_cells(const ScenarioSpec& resolved) {
  std::vector<CellPlan> cells;
  const auto add = [&](const std::string& slug, ScenarioSpec spec) {
    spec.validate();
    cells.push_back(CellPlan{cell_id(cells.size(), slug), std::move(spec)});
  };

  switch (resolved.kind) {
    case ScenarioKind::kInfectionVsHtCount:
      for (const InfectionArm& arm : resolved.axes.arms) {
        ScenarioSpec cell = cell_base(resolved);
        cell.axes.arms = {arm};
        std::string slug = "n";
        slug += std::to_string(arm.nodes);
        add(slug, std::move(cell));
      }
      break;

    case ScenarioKind::kInfectionVsDistribution:
      for (const int divisor : resolved.axes.ht_divisors) {
        ScenarioSpec cell = cell_base(resolved);
        cell.axes.ht_divisors = {divisor};
        std::string slug = "d";
        slug += std::to_string(divisor);
        add(slug, std::move(cell));
      }
      break;

    case ScenarioKind::kAttackEffect:
    case ScenarioKind::kDefenseEvaluation:
      for (const std::string& mix : resolved.workload.mixes) {
        ScenarioSpec cell = cell_base(resolved);
        cell.workload.mixes = {mix};
        add(mix, std::move(cell));
      }
      break;

    case ScenarioKind::kPlacementStudy:
      // The runner keys each mix's stream as Rng(seed + mix_index). A
      // cell sees its mix at local index 0, so rebasing the cell's seed
      // by the global index reproduces the stream exactly. system.seed
      // (the workload streams) is deliberately left alone.
      for (std::size_t mix_i = 0; mix_i < resolved.workload.mixes.size();
           ++mix_i) {
        ScenarioSpec cell = cell_base(resolved);
        cell.workload.mixes = {resolved.workload.mixes[mix_i]};
        cell.seed = resolved.seed + mix_i;
        add(resolved.workload.mixes[mix_i], std::move(cell));
      }
      break;

    case ScenarioKind::kBudgeterAblation:
      for (const power::BudgeterKind kind : resolved.axes.budgeters) {
        ScenarioSpec cell = cell_base(resolved);
        cell.axes.budgeters = {kind};
        add(power::to_string(kind), std::move(cell));
      }
      break;

    case ScenarioKind::kDefenseClosedLoop:
      for (const ClusterSpec& placement : resolved.axes.placements) {
        ScenarioSpec cell = cell_base(resolved);
        cell.axes.placements = {placement};
        add(to_string(placement.at), std::move(cell));
      }
      break;

    case ScenarioKind::kDefenseSweep:
    case ScenarioKind::kAttackComparison:
    case ScenarioKind::kConfigReport:
    case ScenarioKind::kBenchmarkReport:
    case ScenarioKind::kAreaPowerReport:
      add("all", cell_base(resolved));
      break;
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
