#include "scenario/cells.hpp"

#include <cstdio>
#include <stdexcept>

#include "power/budgeter.hpp"

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

// ---------------------------------------------------------------- merge

[[nodiscard]] const json::Value* member(const json::Value& cell,
                                        const char* key) {
  if (!cell.is_object()) return nullptr;  // null = failed cell
  return cell.as_object().find(key);
}

/// Appends every element of the cell's `key` array to `dst`; a failed
/// (null) or malformed cell contributes nothing, so the merged tree stays
/// valid with holes where the failures were.
void append_elements(json::Array& dst, const json::Value& cell,
                     const char* key) {
  const json::Value* arr = member(cell, key);
  if (arr == nullptr || !arr->is_array()) return;
  for (const json::Value& v : arr->as_array()) dst.push_back(v);
}

/// The keys run_scenario writes around the payload; everything else in a
/// cell envelope IS the payload.
[[nodiscard]] bool is_envelope_key(const std::string& key) {
  return key == "scenario" || key == "kind" || key == "quick" ||
         key == "seed" || key == "threads" || key == "timing";
}

void require_cell_count(std::size_t expected, std::size_t got) {
  if (expected != got) {
    throw std::runtime_error(
        "merge_cell_results: spec expands to " + std::to_string(expected) +
        " cells but " + std::to_string(got) + " results were given");
  }
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
        for (const int hts : arm.ht_counts) {
          ScenarioSpec cell = cell_base(resolved);
          cell.axes.arms = {InfectionArm{arm.nodes, {hts}}};
          std::string slug = "n";
          slug += std::to_string(arm.nodes);
          slug += "-ht";
          slug += std::to_string(hts);
          add(slug, std::move(cell));
        }
      }
      break;

    case ScenarioKind::kInfectionVsDistribution:
      for (const int divisor : resolved.axes.ht_divisors) {
        for (const int size : resolved.axes.sizes) {
          ScenarioSpec cell = cell_base(resolved);
          cell.axes.ht_divisors = {divisor};
          cell.axes.sizes = {size};
          std::string slug = "d";
          slug += std::to_string(divisor);
          slug += "-s";
          slug += std::to_string(size);
          add(slug, std::move(cell));
        }
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
  json::Object envelope;
  envelope["scenario"] = json::Value(resolved.name);
  envelope["kind"] = json::Value(to_string(resolved.kind));
  envelope["quick"] = json::Value(quick);
  envelope["seed"] = json::Value(static_cast<long long>(resolved.seed));
  envelope["threads"] = json::Value(threads);

  switch (resolved.kind) {
    case ScenarioKind::kInfectionVsHtCount: {
      std::size_t expected = 0;
      for (const InfectionArm& arm : resolved.axes.arms) {
        expected += arm.ht_counts.size();
      }
      require_cell_count(expected, cell_results.size());
      std::size_t k = 0;
      json::Array arms;
      for (const InfectionArm& arm : resolved.axes.arms) {
        json::Array rows;
        for (std::size_t h = 0; h < arm.ht_counts.size(); ++h) {
          const json::Value* cell_arms = member(cell_results[k++], "arms");
          if (cell_arms == nullptr || !cell_arms->is_array()) continue;
          for (const json::Value& cell_arm : cell_arms->as_array()) {
            append_elements(rows, cell_arm, "rows");
          }
        }
        json::Object arm_out;
        arm_out["nodes"] = json::Value(arm.nodes);
        arm_out["rows"] = json::Value(std::move(rows));
        arms.push_back(json::Value(std::move(arm_out)));
      }
      envelope["arms"] = json::Value(std::move(arms));
      break;
    }

    case ScenarioKind::kInfectionVsDistribution: {
      require_cell_count(
          resolved.axes.ht_divisors.size() * resolved.axes.sizes.size(),
          cell_results.size());
      std::size_t k = 0;
      json::Array divisors;
      for (const int divisor : resolved.axes.ht_divisors) {
        json::Array rows;
        for (std::size_t s = 0; s < resolved.axes.sizes.size(); ++s) {
          const json::Value* cell_divs =
              member(cell_results[k++], "divisors");
          if (cell_divs == nullptr || !cell_divs->is_array()) continue;
          for (const json::Value& cell_div : cell_divs->as_array()) {
            append_elements(rows, cell_div, "rows");
          }
        }
        json::Object d;
        d["divisor"] = json::Value(divisor);
        d["rows"] = json::Value(std::move(rows));
        divisors.push_back(json::Value(std::move(d)));
      }
      envelope["divisors"] = json::Value(std::move(divisors));
      break;
    }

    case ScenarioKind::kAttackEffect:
    case ScenarioKind::kPlacementStudy: {
      require_cell_count(resolved.workload.mixes.size(), cell_results.size());
      json::Array mixes;
      for (const json::Value& cell : cell_results) {
        append_elements(mixes, cell, "mixes");
      }
      envelope["mixes"] = json::Value(std::move(mixes));
      break;
    }

    case ScenarioKind::kDefenseEvaluation: {
      require_cell_count(resolved.workload.mixes.size(), cell_results.size());
      json::Array rows;
      for (const json::Value& cell : cell_results) {
        append_elements(rows, cell, "rows");
      }
      envelope["rows"] = json::Value(std::move(rows));
      break;
    }

    case ScenarioKind::kBudgeterAblation: {
      require_cell_count(resolved.axes.budgeters.size(), cell_results.size());
      json::Array rows;
      for (const json::Value& cell : cell_results) {
        append_elements(rows, cell, "rows");
      }
      envelope["rows"] = json::Value(std::move(rows));
      break;
    }

    case ScenarioKind::kDefenseClosedLoop: {
      require_cell_count(resolved.axes.placements.size(),
                         cell_results.size());
      // attacker_cores is placement-invariant; take it from the first
      // surviving cell. duty_comparison is defined on the FIRST
      // placement's arms, so only cell 0 can supply it.
      const json::Value* attacker_cores = nullptr;
      for (const json::Value& cell : cell_results) {
        attacker_cores = member(cell, "attacker_cores");
        if (attacker_cores != nullptr) break;
      }
      if (attacker_cores != nullptr) {
        envelope["attacker_cores"] = *attacker_cores;
      }
      json::Array arms;
      for (const json::Value& cell : cell_results) {
        append_elements(arms, cell, "arms");
      }
      envelope["arms"] = json::Value(std::move(arms));
      if (!cell_results.empty()) {
        if (const json::Value* comparison =
                member(cell_results.front(), "duty_comparison")) {
          envelope["duty_comparison"] = *comparison;
        }
      }
      break;
    }

    case ScenarioKind::kDefenseSweep:
    case ScenarioKind::kAttackComparison:
    case ScenarioKind::kConfigReport:
    case ScenarioKind::kBenchmarkReport:
    case ScenarioKind::kAreaPowerReport: {
      require_cell_count(1, cell_results.size());
      const json::Value& cell = cell_results.front();
      if (cell.is_object()) {
        for (const auto& [key, value] : cell.as_object()) {
          if (!is_envelope_key(key)) envelope[key] = value;
        }
      }
      break;
    }
  }

  return json::Value(std::move(envelope));
}

}  // namespace htpb::scenario
