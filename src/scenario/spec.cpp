#include "scenario/spec.hpp"

#include <stdexcept>
#include <string_view>
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
  system::SystemConfig cfg;
  cfg.width = width;
  cfg.height = height;
  cfg.epoch_cycles = epoch_cycles;
  cfg.first_epoch_cycle = first_epoch_cycle;
  cfg.budget_fraction = budget_fraction;
  cfg.budgeter = budgeter;
  cfg.gm_placement = gm_placement;
  cfg.gm_node = gm_node;
  cfg.seed = seed;
  return cfg;
}

namespace {

[[nodiscard]] const workload::Mix& mix_by_name(const std::string& name) {
  for (const auto& m : workload::standard_mixes()) {
    if (m.name == name) return m;
  }
  throw std::invalid_argument("unknown mix \"" + name + "\"");
}

/// The spec key of each CampaignConfig member that campaign_config fills
/// from a key spelled differently: the bridge read backwards, so that a
/// campaign error found in a spec names the key to fix.
constexpr std::pair<std::string_view, std::string_view> kSpecKeys[] = {
    {"threads_per_app", "workload.threads_per_app"},
    {"warmup_epochs", "epochs.warmup"},
    {"measure_epochs", "epochs.measure"},
    {"toggle_period_epochs", "trojan.toggle_period_epochs"},
    {"trojan.adapt", "trojan.adaptation"},
    {"flooding.rate", "axes.flood_rate"},
};

/// `what` (a CampaignConfig::validate() message, which opens with the
/// offending member's path) with a kSpecKeys member renamed to its key.
[[nodiscard]] std::string in_spec_keys(std::string what) {
  for (const auto& [member, key] : kSpecKeys) {
    if (what.starts_with(member) && what.size() > member.size() &&
        (what[member.size()] == ' ' || what[member.size()] == '.')) {
      return what.replace(0, member.size(), key);
    }
  }
  return what;
}

}  // namespace

core::CampaignConfig campaign_config(const ScenarioSpec& spec,
                                     const std::string& mix_name) {
  core::CampaignConfig cfg;
  cfg.system = spec.system.to_system_config();
  if (!mix_name.empty()) cfg.mix = mix_by_name(mix_name);
  cfg.threads_per_app = spec.workload.threads_per_app;
  cfg.trojan.active = spec.trojan.active;
  cfg.trojan.attenuate_victims = spec.trojan.attenuate_victims;
  cfg.trojan.boost_attackers = spec.trojan.boost_attackers;
  cfg.trojan.victim_scale = spec.trojan.victim_scale;
  cfg.trojan.attacker_boost = spec.trojan.attacker_boost;
  cfg.toggle_period_epochs = spec.trojan.toggle_period_epochs;
  cfg.trojan.adapt = spec.trojan.adaptation;
  cfg.warmup_epochs = spec.epochs.warmup;
  cfg.measure_epochs = spec.epochs.measure;
  cfg.detector = spec.detector;
  cfg.response = spec.response;
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
  // `key` + `check`'s error, named by spec keys (kSpecKeys).
  const auto check_key = [&](std::string_view key, const auto& check) {
    try {
      check();
    } catch (const std::invalid_argument& e) {
      invalid(name, in_spec_keys(std::string(key) + e.what()));
    }
  };
  // The shared sections (system, workload, trojan, epochs, detector,
  // response) through the check every campaign runs on them.
  const core::CampaignConfig campaign = campaign_config(*this, "");
  check_key("", [&] { campaign.validate(); });
  check_mix_name(name, workload.mix);
  // Each band, applied to the detector base, is a detector: the sweep
  // and any kind's --replay-trace build one from it.
  for (const BandSpec& b : axes.bands) {
    power::DetectorConfig d = detector.value_or(power::DetectorConfig{});
    d.low_ratio = b.low;
    d.high_ratio = b.high;
    check_key("axes.bands: ", [&] { d.validate(); });
  }
  // The HT budget of fig5's and the placement study's placements.
  if (axes.max_hts < 1) invalid(name, "axes.max_hts must be >= 1");

  const auto require_placements = [&] {
    if (axes.placements.empty()) {
      invalid(name, "axes.placements must not be empty");
    }
    for (const ClusterSpec& c : axes.placements) {
      if (c.hts < 1) invalid(name, "axes.placements hts must be >= 1");
    }
  };
  // Kinds that attack one cluster: a second one would be ignored.
  const auto require_one_placement = [&] {
    require_placements();
    if (axes.placements.size() != 1) {
      invalid(name, "axes.placements must hold exactly one cluster");
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
      break;
    case ScenarioKind::kPlacementStudy:
      check_mixes(name, workload.mixes);
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
      if (axes.bands.empty()) invalid(name, "axes.bands must not be empty");
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
        // Each factor is the victim scale of a ROC cell's Trojan.
        for (const double f : axes.roc.factors) {
          core::TrojanConfig t = campaign.trojan;
          t.victim_scale = f;
          check_key("axes.roc.factors: ", [&] { t.validate(); });
        }
        for (const int p : axes.roc.periods) {
          if (p < 0) invalid(name, "axes.roc.periods must be >= 0");
        }
      }
      break;
    case ScenarioKind::kDefenseEvaluation:
      check_mixes(name, workload.mixes);
      require_one_placement();
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
      // The flooding arm's campaign, as the runner builds it.
      core::CampaignConfig flood = campaign;
      flood.detector.reset();
      flood.response.reset();
      flood.flooding = core::FloodingConfig{axes.flood_rate, seed};
      check_key("", [&] { flood.validate(); });
      if (axes.toggle_periods.empty()) {
        invalid(name, "axes.toggle_periods must not be empty");
      }
      for (const int p : axes.toggle_periods) {
        if (p < 0) invalid(name, "axes.toggle_periods must be >= 0");
      }
      if (axes.duty_warmup_epochs < 0 || axes.duty_measure_epochs < 1) {
        invalid(name, "duty epochs need warmup >= 0 and measure >= 1");
      }
      require_one_placement();
      break;
    }
    case ScenarioKind::kBudgeterAblation:
      if (workload.mix.empty()) invalid(name, "workload.mix must be set");
      if (axes.budgeters.empty()) {
        invalid(name, "axes.budgeters must not be empty");
      }
      require_one_placement();
      break;
    case ScenarioKind::kConfigReport:
    case ScenarioKind::kBenchmarkReport:
      break;
    case ScenarioKind::kAreaPowerReport:
      if (axes.ht_counts.empty()) {
        invalid(name, "axes.ht_counts must not be empty");
      }
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
