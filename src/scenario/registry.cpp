#include "scenario/registry.hpp"

#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "workload/application.hpp"

namespace htpb::scenario {

namespace {

using system::GmPlacement;

// Each maker mirrors the configuration its legacy bench main hand-rolled;
// the seeds are the constants those mains hard-coded (runner.cpp derives
// the per-loop streams from them exactly as the mains did, so a scenario
// run is bit-identical to the pre-registry bench -- locked by
// tests/scenario/runner_test.cpp). registry() validates every spec.

ScenarioSpec named(std::string name, ScenarioKind kind) {
  ScenarioSpec s;
  s.name = std::move(name);
  s.kind = kind;
  return s;
}

void set_size(ScenarioSpec& s, int nodes) {
  std::tie(s.system.width, s.system.height) = mesh_for_size(nodes);
}

/// All four Table III mixes, in order.
std::vector<std::string> standard_mix_names() {
  std::vector<std::string> names;
  for (const auto& m : workload::standard_mixes()) names.push_back(m.name);
  return names;
}

ScenarioSpec make_fig3() {
  ScenarioSpec s = named("fig3", ScenarioKind::kInfectionVsHtCount);
  s.title = "Fig. 3 -- infection rate vs number of HTs (GM center vs corner)";
  s.paper_ref = "Fig. 3(a) size 64, Fig. 3(b) size 512";
  s.expectation =
      "rate rises with #HTs; corner GM >= ~20% higher beyond 10 HTs";
  s.system.epoch_cycles = 1500;
  s.epochs = {1, 3};
  s.seed = 1000;
  s.quick = json::parse(R"({"epochs": {"measure": 2}, "axes": {"seeds": 2}})");
  s.axes.arms = {{64, {2, 5, 10, 15, 20, 25, 30}},
                 {512, {5, 10, 20, 30, 40, 50, 60}}};
  s.axes.gm_placements = {GmPlacement::kCenter, GmPlacement::kCorner};
  s.axes.seeds = 3;
  return s;
}

ScenarioSpec make_fig4() {
  ScenarioSpec s = named("fig4", ScenarioKind::kInfectionVsDistribution);
  s.title = "Fig. 4 -- infection rate vs HT distribution";
  s.paper_ref = "Fig. 4(a) #HT = size/16, Fig. 4(b) #HT = size/8";
  s.expectation =
      "center cluster > random > corner cluster at every size "
      "(paper: 1.59x and 9.85x at size 256, 1/16)";
  s.system.epoch_cycles = 1500;
  s.epochs = {1, 3};
  s.seed = 500;
  s.quick = json::parse(R"({"epochs": {"measure": 2}, "axes": {"seeds": 2}})");
  s.axes.sizes = {64, 128, 256, 512};
  s.axes.ht_divisors = {16, 8};
  s.axes.seeds = 3;
  return s;
}

/// Figs. 5-6 are two readouts of one attack sweep: 256 cores, Table III
/// mixes, 50% budget, victim x0.10 / attacker x8. Each mix's `rows[]`
/// carry Q (Fig. 5) and each row's `theta_change` the per-app Theta of
/// `apps` (Fig. 6).
ScenarioSpec make_fig5() {
  ScenarioSpec s = named("fig5", ScenarioKind::kAttackEffect);
  s.title =
      "Figs. 5-6 -- attack effect Q and per-application Theta vs infection "
      "rate (4 mixes, 256 cores)";
  s.paper_ref = "Fig. 5, Fig. 6(a)-(d)";
  s.expectation =
      "Q grows with infection rate for every mix; paper peaks at "
      "Q = 6.89 (mix-4, infection 0.9). Attackers' Theta >= 1 and rises; "
      "victims' Theta < 1 and falls; compute-bound victims fall hardest";
  set_size(s, 256);
  s.system.epoch_cycles = 2000;
  s.workload.mixes = standard_mix_names();
  s.trojan.victim_scale = 0.10;
  s.trojan.attacker_boost = 8.0;
  s.epochs = {2, 5};
  s.seed = 42;
  s.axes.infection_targets = {0.1, 0.3, 0.5, 0.7, 0.9};
  s.axes.max_hts = 64;
  s.quick = json::parse(R"({"epochs": {"measure": 3},
                            "axes": {"infection_targets": [0.3, 0.9]}})");
  return s;
}

ScenarioSpec make_table1() {
  ScenarioSpec s = named("table1", ScenarioKind::kConfigReport);
  s.title = "Table I -- simulator configuration";
  s.paper_ref = "Table I";
  s.expectation = "all architecture parameters implemented 1:1 where given";
  set_size(s, 256);
  return s;
}

ScenarioSpec make_table2() {
  ScenarioSpec s = named("table2", ScenarioKind::kBenchmarkReport);
  s.title = "Tables II & III -- benchmarks and mixes";
  s.paper_ref = "Table II, Table III";
  s.expectation =
      "11 PARSEC/SPLASH-2 profiles; 4 mixes with 1-3 "
      "attackers/victims; compute-bound apps have higher Phi";
  set_size(s, 64);
  s.system.epoch_cycles = 1500;
  s.epochs = {0, 3};
  return s;
}

ScenarioSpec make_area_power() {
  ScenarioSpec s = named("secIIID-area-power", ScenarioKind::kAreaPowerReport);
  s.title = "Sec. III-D -- hardware Trojan area & power vs router/chip";
  s.paper_ref = "Sec. III-D";
  s.expectation =
      "HT ~0.017%/0.0017% of one router; 60 HTs ~0.002%/0.0002% of "
      "all routers in a 512-node chip";
  set_size(s, 512);
  s.axes.ht_counts = {1, 10, 20, 40, 60};
  return s;
}

/// The 64-core chip with victim x0.10 / attacker x8 that the placement
/// study and the defense and comparison scenarios share.
ScenarioSpec small_attack(std::string name, ScenarioKind kind) {
  ScenarioSpec s = named(std::move(name), kind);
  set_size(s, 64);
  s.system.epoch_cycles = 2000;
  s.trojan.victim_scale = 0.10;
  s.trojan.attacker_boost = 8.0;
  s.epochs = {2, 5};
  return s;
}

ScenarioSpec make_placement_study() {
  ScenarioSpec s =
      small_attack("secVC-placement", ScenarioKind::kPlacementStudy);
  s.title = "Sec. V-C -- model-optimized vs random HT placement (16 HTs)";
  s.paper_ref = "Sec. V-C";
  s.expectation =
      "optimized placement improves Q by ~30% (mixes 1-3) and "
      "up to ~110% (mix-4) over random";
  s.workload.mixes = standard_mix_names();
  s.seed = 7;
  s.quick = json::parse(R"({"epochs": {"measure": 3},
                            "axes": {"train_samples": 10,
                                     "random_trials": 2}})");
  s.axes.max_hts = 16;
  s.axes.train_samples = 24;
  s.axes.random_trials = 4;
  s.axes.candidates_per_m = 60;
  s.axes.shortlist = 3;
  return s;
}

ScenarioSpec make_defense_roc() {
  ScenarioSpec s = small_attack("defense-roc", ScenarioKind::kDefenseSweep);
  s.workload.mix = "mix-1";
  s.title = "Defense sweep -- trust-band operating points x HT placements";
  s.paper_ref = "extension of Sec. VI (conclusion)";
  s.expectation =
      "tight bands detect fast with some false positives and kill "
      "most of Q; loose bands go blind and let Q through";
  // Mid-run activation: the detector earns honest history, then the
  // Trojans wake up (the scenario a deployed detector actually faces).
  s.trojan.active = false;
  s.trojan.toggle_period_epochs = 3;
  s.epochs.measure = 6;
  s.quick = json::parse(R"({"epochs": {"measure": 4},
                            "axes": {
                              "bands": [{"low": 0.6, "high": 1.6},
                                        {"low": 0.3, "high": 3.0}],
                              "placements": [{"at": "gm", "hts": 8},
                                             {"at": "quarter", "hts": 8}],
                              "roc": {"periods": [2], "factors": [0.1, 0.6],
                                      "placements": 1}}})");
  // Operating points: the trust band widened from tight (flag anything
  // off by ~25%) to loose (only 4x excursions).
  s.axes.bands = {
      {0.8, 1.25}, {0.6, 1.6}, {0.45, 2.2}, {0.3, 3.0}, {0.25, 4.0}};
  // The Fig. 4 arms: GM-adjacent, mid-mesh and corner clusters.
  s.axes.placements = {{ClusterSpec::At::kGm, 8},
                       {ClusterSpec::At::kQuarter, 8},
                       {ClusterSpec::At::kCorner, 8}};
  s.axes.roc.periods = {0, 2, 4};
  s.axes.roc.factors = {0.10, 0.35, 0.60, 0.80};
  s.axes.roc.placements = 2;
  s.axes.roc.epoch0_first_epoch_cycle = 600;
  return s;
}

ScenarioSpec make_defense_evaluation() {
  ScenarioSpec s =
      small_attack("defense-evaluation", ScenarioKind::kDefenseEvaluation);
  s.title =
      "Defense evaluation -- detection & mitigation of the false-data "
      "attack";
  s.paper_ref = "extension of Sec. VI (conclusion)";
  s.expectation =
      "detector flags most victims/accomplices with no false "
      "positives; the guarded budgeter removes most of the Q "
      "excursion";
  s.workload.mixes = standard_mix_names();
  // Mid-run activation for the detection arm; the runner pins the
  // damage arms to an always-on Trojan so plain and guarded runs stay
  // directly comparable.
  s.trojan.active = false;
  s.trojan.toggle_period_epochs = 3;
  s.detector = power::DetectorConfig{};
  s.quick = json::parse(R"({"epochs": {"measure": 3}})");
  s.axes.placements = {{ClusterSpec::At::kGm, 8}};
  s.axes.detection_measure_epochs = 6;
  return s;
}

ScenarioSpec make_attack_comparison() {
  ScenarioSpec s =
      small_attack("attack-comparison", ScenarioKind::kAttackComparison);
  s.workload.mix = "mix-1";
  s.title =
      "Attack comparison -- false-data vs flooding; duty-cycled "
      "activation";
  s.paper_ref = "Sec. II-B taxonomy / Sec. III-B activation control";
  s.expectation =
      "the false-data attack injects zero packets (invisible to "
      "traffic counters) while flooding lights up the victim router; "
      "duty-cycling scales damage with exposure";
  s.seed = 7;
  s.axes.placements = {{ClusterSpec::At::kGm, 8}};
  s.axes.flood_sources = {0, 7, 56, 63};
  s.axes.flood_rate = 0.15;
  s.axes.toggle_periods = {0, 4, 2, 1};
  s.axes.duty_warmup_epochs = 0;
  s.axes.duty_measure_epochs = 8;
  return s;
}

ScenarioSpec make_budgeter_ablation() {
  ScenarioSpec s =
      small_attack("budgeter-ablation", ScenarioKind::kBudgeterAblation);
  s.workload.mix = "mix-1";
  s.title =
      "Ablation -- attack effect vs budgeting algorithm (mix-1, 64 "
      "cores)";
  s.paper_ref =
      "Sec. I / II-A claim: attack is allocation-algorithm independent";
  s.expectation =
      "Q > 1 under every policy; magnitude varies with how "
      "aggressively the policy follows the (tampered) requests";
  s.quick = json::parse(R"({"epochs": {"measure": 3}})");
  s.axes.placements = {{ClusterSpec::At::kGm, 8}};
  s.axes.budgeters = {
      power::BudgeterKind::kUniform, power::BudgeterKind::kGreedy,
      power::BudgeterKind::kProportional,
      power::BudgeterKind::kDynamicProgramming, power::BudgeterKind::kMarket};
  return s;
}

ScenarioSpec make_defense_closed_loop() {
  ScenarioSpec s =
      small_attack("defense-closed-loop", ScenarioKind::kDefenseClosedLoop);
  s.workload.mix = "mix-1";
  s.title =
      "Closed loop -- response policies x {static, adaptive} duty-cycled "
      "Trojan";
  s.paper_ref = "extension of Sec. VI (conclusion)";
  s.expectation =
      "quarantine/throttle/migrate all recover victim grants with "
      "little collateral against the static Trojan; the adaptive "
      "Trojan halves the detection rate at equal mean duty and "
      "degrades every policy's recovery";
  // Static arm: mid-run activation on a period-2 duty cycle (mean duty
  // 0.5). The adaptive arm flips to grant-feedback control at the same
  // mean duty (max_on 1 / hold_off 1).
  s.trojan.active = false;
  s.trojan.toggle_period_epochs = 2;
  s.epochs.measure = 8;
  s.detector = power::DetectorConfig{};
  s.response = power::ResponseConfig{};
  s.quick = json::parse(R"({"epochs": {"measure": 6},
                            "axes": {"placements": [{"at": "gm", "hts": 8}]}})");
  s.axes.placements = {{ClusterSpec::At::kGm, 8},
                       {ClusterSpec::At::kQuarter, 8}};
  s.axes.responses = {power::ResponseKind::kQuarantine,
                      power::ResponseKind::kThrottle,
                      power::ResponseKind::kMigrate};
  return s;
}

}  // namespace

const std::vector<ScenarioSpec>& registry() {
  static const std::vector<ScenarioSpec> specs = [] {
    std::vector<ScenarioSpec> all;
    all.push_back(make_fig3());
    all.push_back(make_fig4());
    all.push_back(make_fig5());
    all.push_back(make_table1());
    all.push_back(make_table2());
    all.push_back(make_area_power());
    all.push_back(make_placement_study());
    all.push_back(make_defense_roc());
    all.push_back(make_defense_evaluation());
    all.push_back(make_attack_comparison());
    all.push_back(make_budgeter_ablation());
    all.push_back(make_defense_closed_loop());
    for (const ScenarioSpec& spec : all) spec.validate();
    return all;
  }();
  return specs;
}

const ScenarioSpec* find_scenario(std::string_view name) {
  for (const ScenarioSpec& spec : registry()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

const ScenarioSpec& scenario_or_throw(std::string_view name) {
  if (const ScenarioSpec* spec = find_scenario(name)) return *spec;
  std::string known;
  for (const ScenarioSpec& spec : registry()) {
    if (!known.empty()) known += ", ";
    known += spec.name;
  }
  throw std::invalid_argument("unknown scenario \"" + std::string(name) +
                              "\"; registered: " + known);
}

}  // namespace htpb::scenario
