#include "scenario/spec.hpp"

#include <stdexcept>
#include <utility>

#include "scenario/spec_codec.hpp"
#include "workload/application.hpp"

namespace htpb::scenario {

// ------------------------------------------------------------ enum names

const char* to_string(ScenarioKind kind) noexcept {
  switch (kind) {
    case ScenarioKind::kInfectionVsHtCount: return "infection_vs_ht_count";
    case ScenarioKind::kInfectionVsDistribution:
      return "infection_vs_distribution";
    case ScenarioKind::kAttackEffect: return "attack_effect";
    case ScenarioKind::kPlacementStudy: return "placement_study";
    case ScenarioKind::kDefenseSweep: return "defense_sweep";
    case ScenarioKind::kDefenseEvaluation: return "defense_evaluation";
    case ScenarioKind::kAttackComparison: return "attack_comparison";
    case ScenarioKind::kBudgeterAblation: return "budgeter_ablation";
    case ScenarioKind::kConfigReport: return "config_report";
    case ScenarioKind::kBenchmarkReport: return "benchmark_report";
    case ScenarioKind::kAreaPowerReport: return "area_power_report";
    case ScenarioKind::kDefenseClosedLoop: return "defense_closed_loop";
  }
  return "?";
}

const char* to_string(system::GmPlacement placement) noexcept {
  switch (placement) {
    case system::GmPlacement::kCenter: return "center";
    case system::GmPlacement::kCorner: return "corner";
  }
  return "?";
}

const char* to_string(power::DetectorKind kind) noexcept {
  switch (kind) {
    case power::DetectorKind::kSelfEwma: return "ewma";
    case power::DetectorKind::kCohortMedian: return "cohort";
  }
  return "?";
}

const char* to_string(ClusterSpec::At at) noexcept {
  switch (at) {
    case ClusterSpec::At::kGm: return "gm";
    case ClusterSpec::At::kCenter: return "center";
    case ClusterSpec::At::kCorner: return "corner";
    case ClusterSpec::At::kQuarter: return "quarter";
  }
  return "?";
}

std::pair<int, int> mesh_for_size(int nodes) {
  switch (nodes) {
    case 64: return {8, 8};
    case 128: return {16, 8};
    case 256: return {16, 16};
    case 512: return {32, 16};
    default:
      throw std::invalid_argument(
          "no paper mesh shape for " + std::to_string(nodes) +
          " nodes (64/128/256/512)");
  }
}

// --------------------------------------------------------- config bridge

system::SystemConfig SystemSpec::to_system_config() const {
  system::SystemConfig cfg = system::SystemConfig::with_mesh(width, height);
  cfg.epoch_cycles = epoch_cycles;
  cfg.first_epoch_cycle = first_epoch_cycle;
  cfg.budget_fraction = budget_fraction;
  cfg.budgeter = budgeter;
  cfg.gm_placement = gm_placement;
  cfg.gm_node = gm_node;
  cfg.seed = seed;
  return cfg;
}

// ------------------------------------------------------------------ JSON

json::Value ScenarioSpec::to_json() const {
  return write_spec(*this, "scenario");
}

ScenarioSpec ScenarioSpec::from_json(const json::Value& v) {
  // The version is checked before the field walk, so a file written for
  // another schema is reported as such, not by its first unknown key.
  json::ObjectReader version(v.as_object(), "scenario");
  const std::int64_t schema = version.require("schema_version").as_int();
  if (schema != kSchemaVersion) {
    version.fail("schema_version " + std::to_string(schema) +
                 " is not supported (this build reads version " +
                 std::to_string(kSchemaVersion) + ")");
  }
  ScenarioSpec spec;
  read_spec(v, "scenario", spec);
  if (!spec.quick.is_null() && !spec.quick.is_object()) {
    version.fail("quick must be an object overlay");
  }
  return spec;
}

ScenarioSpec load_spec_file(const std::string& path) {
  // parse_file already prefixes the path on read/parse errors; schema and
  // validation errors speak in terms of "scenario.<field>" and need the
  // file named too.
  const json::Value doc = json::parse_file(path);
  try {
    ScenarioSpec spec = ScenarioSpec::from_json(doc);
    spec.validate();
    return spec;
  } catch (const std::exception& e) {
    throw std::runtime_error("scenario spec " + path + ": " + e.what());
  }
}

// --------------------------------------------------------------- validate

namespace {

[[noreturn]] void invalid(const std::string& name, const std::string& what) {
  throw std::invalid_argument("scenario \"" + name + "\": " + what);
}

void check_mix_name(const std::string& name, const std::string& mix) {
  if (mix.empty()) return;  // uniform infection-only workload
  for (const auto& m : workload::standard_mixes()) {
    if (m.name == mix) return;
  }
  invalid(name, "unknown mix \"" + mix + "\"");
}

void check_mixes(const std::string& name,
                 const std::vector<std::string>& mixes) {
  if (mixes.empty()) invalid(name, "workload.mixes must not be empty");
  for (const auto& m : mixes) {
    if (m.empty()) invalid(name, "workload.mixes entries must be named");
    check_mix_name(name, m);
  }
}

}  // namespace

void ScenarioSpec::validate() const {
  if (name.empty()) invalid("(unnamed)", "name must not be empty");
  if (schema_version != kSchemaVersion) {
    invalid(name, "unsupported schema_version");
  }
  // The chip must build (mesh shape, GM bounds) for every simulating kind.
  const system::SystemConfig chip = system.to_system_config();
  chip.validate();
  if (system.epoch_cycles <= chip.resolved_collect_window()) {
    invalid(name, "system.epoch_cycles must exceed the collect window (" +
                      std::to_string(chip.resolved_collect_window()) + ")");
  }
  if (system.budget_fraction <= 0.0 || system.budget_fraction > 1.0) {
    invalid(name, "system.budget_fraction must be in (0, 1]");
  }
  check_mix_name(name, workload.mix);
  if (workload.threads_per_app < 0) {
    invalid(name, "workload.threads_per_app must be >= 0 (0 = auto)");
  }
  if (trojan.victim_scale <= 0.0 || trojan.victim_scale > 1.0) {
    invalid(name, "trojan.victim_scale must be in (0, 1]");
  }
  if (trojan.attacker_boost < 1.0) {
    invalid(name, "trojan.attacker_boost must be >= 1");
  }
  if (trojan.toggle_period_epochs < 0) {
    invalid(name, "trojan.toggle_period_epochs must be >= 0");
  }
  {
    // Ranges are checked even when disabled: kDefenseClosedLoop carries
    // the parameters with enabled=false and flips the switch per arm.
    const core::TrojanAdaptation& a = trojan.adaptation;
    if (a.enabled && trojan.toggle_period_epochs > 0) {
      invalid(name,
              "trojan.adaptation and trojan.toggle_period_epochs are rival "
              "duty-cycle controllers; enable one");
    }
    if (a.alpha <= 0.0 || a.alpha > 1.0) {
      invalid(name, "trojan.adaptation.alpha must be in (0, 1]");
    }
    if (a.backoff_ratio <= 0.0 || a.backoff_ratio >= 1.0) {
      invalid(name, "trojan.adaptation.backoff_ratio must be in (0, 1)");
    }
    if (a.max_on_epochs < 1 || a.hold_off_epochs < 1) {
      invalid(name,
              "trojan.adaptation.max_on_epochs and hold_off_epochs must "
              "be >= 1");
    }
  }
  if (response.has_value()) {
    if (!detector.has_value()) {
      invalid(name, "response requires a detector to act on");
    }
    if (response->sanction_epochs < 1) {
      invalid(name, "response.sanction_epochs must be >= 1");
    }
    if (response->recovery_threshold <= 0.0 ||
        response->recovery_threshold > 2.0) {
      invalid(name, "response.recovery_threshold must be in (0, 2]");
    }
  }
  if (epochs.warmup < 0 || epochs.measure < 1) {
    invalid(name, "epochs.warmup must be >= 0 and epochs.measure >= 1");
  }
  if (threads < 0) invalid(name, "threads must be >= 0");

  const auto require_bands = [&] {
    if (axes.bands.empty()) invalid(name, "axes.bands must not be empty");
    for (const BandSpec& b : axes.bands) {
      if (b.low <= 0.0 || b.high <= b.low) {
        invalid(name, "axes.bands entries need 0 < low < high");
      }
    }
  };
  const auto require_placements = [&] {
    if (axes.placements.empty()) {
      invalid(name, "axes.placements must not be empty");
    }
    for (const ClusterSpec& c : axes.placements) {
      if (c.hts < 1) invalid(name, "axes.placements hts must be >= 1");
    }
  };

  switch (kind) {
    case ScenarioKind::kInfectionVsHtCount:
      if (axes.arms.empty()) invalid(name, "axes.arms must not be empty");
      for (const InfectionArm& arm : axes.arms) {
        (void)mesh_for_size(arm.nodes);
        if (arm.ht_counts.empty()) {
          invalid(name, "axes.arms ht_counts must not be empty");
        }
      }
      if (axes.gm_placements.empty()) {
        invalid(name, "axes.gm_placements must not be empty");
      }
      if (axes.seeds < 1) invalid(name, "axes.seeds must be >= 1");
      break;
    case ScenarioKind::kInfectionVsDistribution:
      if (axes.sizes.empty()) invalid(name, "axes.sizes must not be empty");
      for (const int size : axes.sizes) (void)mesh_for_size(size);
      if (axes.ht_divisors.empty()) {
        invalid(name, "axes.ht_divisors must not be empty");
      }
      for (const int d : axes.ht_divisors) {
        if (d < 1) invalid(name, "axes.ht_divisors must be >= 1");
      }
      if (axes.seeds < 1) invalid(name, "axes.seeds must be >= 1");
      break;
    case ScenarioKind::kAttackEffect:
      check_mixes(name, workload.mixes);
      if (axes.infection_targets.empty()) {
        invalid(name, "axes.infection_targets must not be empty");
      }
      for (const double t : axes.infection_targets) {
        if (t <= 0.0 || t > 1.0) {
          invalid(name, "axes.infection_targets must be in (0, 1]");
        }
      }
      if (axes.placement_max_hts < 1) {
        invalid(name, "axes.placement_max_hts must be >= 1");
      }
      break;
    case ScenarioKind::kPlacementStudy:
      check_mixes(name, workload.mixes);
      (void)mesh_for_size(axes.nodes);
      if (axes.max_hts < 1) invalid(name, "axes.max_hts must be >= 1");
      if (axes.train_samples < 2) {
        invalid(name, "axes.train_samples must be >= 2 (model fit)");
      }
      if (axes.random_trials < 1) {
        invalid(name, "axes.random_trials must be >= 1");
      }
      if (axes.shortlist < 1 || axes.candidates_per_m < axes.shortlist) {
        invalid(name, "need candidates_per_m >= shortlist >= 1");
      }
      break;
    case ScenarioKind::kDefenseSweep:
      require_bands();
      require_placements();
      if (response.has_value()) {
        invalid(name,
                "response is not read by defense_sweep (its detectors only "
                "replay traces; responses live in defense_closed_loop)");
      }
      if (axes.roc.placements < 0) {
        invalid(name, "axes.roc.placements must be >= 0");
      }
      if (axes.roc.enabled()) {
        if (axes.roc.placements >
            static_cast<int>(axes.placements.size())) {
          invalid(name, "axes.roc.placements exceeds axes.placements");
        }
        for (const double f : axes.roc.factors) {
          if (f <= 0.0 || f > 1.0) {
            invalid(name, "axes.roc.factors must be in (0, 1]");
          }
        }
        for (const int p : axes.roc.periods) {
          if (p < 0) invalid(name, "axes.roc.periods must be >= 0");
        }
      }
      break;
    case ScenarioKind::kDefenseEvaluation:
      check_mixes(name, workload.mixes);
      if (axes.cluster_hts < 1) invalid(name, "axes.cluster_hts must be >= 1");
      if (axes.detection_measure_epochs < 1) {
        invalid(name, "axes.detection_measure_epochs must be >= 1");
      }
      break;
    case ScenarioKind::kAttackComparison: {
      if (workload.mix.empty()) invalid(name, "workload.mix must be set");
      if (axes.flood_sources.empty()) {
        invalid(name, "axes.flood_sources must not be empty");
      }
      const auto node_count =
          static_cast<NodeId>(system.width * system.height);
      for (const NodeId src : axes.flood_sources) {
        if (src >= node_count) {
          invalid(name, "axes.flood_sources outside the mesh");
        }
      }
      if (axes.flood_rate <= 0.0) {
        invalid(name, "axes.flood_rate must be > 0");
      }
      if (axes.toggle_periods.empty()) {
        invalid(name, "axes.toggle_periods must not be empty");
      }
      for (const int p : axes.toggle_periods) {
        if (p < 0) invalid(name, "axes.toggle_periods must be >= 0");
      }
      if (axes.duty_warmup_epochs < 0 || axes.duty_measure_epochs < 1) {
        invalid(name, "duty epochs need warmup >= 0 and measure >= 1");
      }
      if (axes.cluster_hts < 1) invalid(name, "axes.cluster_hts must be >= 1");
      break;
    }
    case ScenarioKind::kBudgeterAblation:
      if (workload.mix.empty()) invalid(name, "workload.mix must be set");
      if (axes.budgeters.empty()) {
        invalid(name, "axes.budgeters must not be empty");
      }
      if (axes.cluster_hts < 1) invalid(name, "axes.cluster_hts must be >= 1");
      break;
    case ScenarioKind::kConfigReport:
      break;
    case ScenarioKind::kBenchmarkReport:
      (void)mesh_for_size(axes.nodes);
      break;
    case ScenarioKind::kAreaPowerReport:
      if (axes.ht_counts.empty()) {
        invalid(name, "axes.ht_counts must not be empty");
      }
      if (axes.nodes < 1) invalid(name, "axes.nodes must be >= 1");
      break;
    case ScenarioKind::kDefenseClosedLoop:
      require_placements();
      if (!detector.has_value()) {
        invalid(name, "detector must be set (responses need verdicts)");
      }
      if (!response.has_value()) {
        invalid(name,
                "response must be set (trigger / sanction parameters; "
                "axes.responses supplies the policy axis)");
      }
      if (axes.responses.empty()) {
        invalid(name, "axes.responses must not be empty");
      }
      if (trojan.toggle_period_epochs < 1) {
        invalid(name,
                "trojan.toggle_period_epochs must be >= 1 (the static "
                "duty-cycled arm)");
      }
      break;
  }

  // The quick variant must be valid too. with_quick() validates the
  // overlaid spec, which carries no overlay unless this one nests one.
  if (!quick.is_null()) {
    try {
      (void)with_quick();
    } catch (const std::exception& e) {
      invalid(name, std::string("quick overlay: ") + e.what());
    }
  }
}

// ----------------------------------------------------------- quick / set

json::Value merge_patch(const json::Value& base, const json::Value& patch) {
  if (!base.is_object() || !patch.is_object()) return patch;
  json::Value merged = base;
  json::Object& out = merged.as_object();
  for (const auto& [key, value] : patch.as_object()) {
    if (const json::Value* existing = out.find(key)) {
      out[key] = merge_patch(*existing, value);
    } else {
      out[key] = value;
    }
  }
  return merged;
}

ScenarioSpec ScenarioSpec::with_quick() const {
  if (quick.is_null()) return *this;
  ScenarioSpec stripped = *this;
  stripped.quick = json::Value();
  const json::Value merged = merge_patch(stripped.to_json(), quick);
  ScenarioSpec out = from_json(merged);
  out.validate();
  return out;
}

void apply_override(json::Value& spec_json, std::string_view dotted_key,
                    std::string_view value_text) {
  json::Value parsed;
  try {
    parsed = json::parse(value_text);
  } catch (const std::exception&) {
    parsed = json::Value(value_text);  // bare strings need no quotes
  }

  json::Value* node = &spec_json;
  std::string_view rest = dotted_key;
  for (;;) {
    const std::size_t dot = rest.find('.');
    const std::string_view head = rest.substr(0, dot);
    if (head.empty()) {
      throw std::runtime_error("--set: empty path segment in \"" +
                               std::string(dotted_key) + "\"");
    }
    if (!node->is_object()) {
      throw std::runtime_error("--set: \"" + std::string(dotted_key) +
                               "\" crosses a non-object value");
    }
    json::Object& o = node->as_object();
    if (dot == std::string_view::npos) {
      o[head] = std::move(parsed);
      return;
    }
    node = &o[head];  // creates a null member, promoted to object below
    if (node->is_null()) *node = json::Value(json::Object{});
    rest = rest.substr(dot + 1);
  }
}

}  // namespace htpb::scenario
