#include "scenario/registry.hpp"

#include <stdexcept>

namespace htpb::scenario {

namespace {

using system::GmPlacement;

// Each maker mirrors the configuration its legacy bench main hand-rolled;
// the seeds are the constants those mains hard-coded (runner.cpp derives
// the per-loop streams from them exactly as the mains did, so a scenario
// run is bit-identical to the pre-registry bench -- locked by
// tests/scenario/runner_test.cpp).

ScenarioSpec make_fig3() {
  ScenarioBuilder b("fig3", ScenarioKind::kInfectionVsHtCount);
  b.title("Fig. 3 -- infection rate vs number of HTs (GM center vs corner)")
      .paper_ref("Fig. 3(a) size 64, Fig. 3(b) size 512")
      .expectation(
          "rate rises with #HTs; corner GM >= ~20% higher beyond 10 HTs")
      .epoch_cycles(1500)
      .warmup_epochs(1)
      .measure_epochs(3)
      .seed(1000)
      .quick(R"({"epochs": {"measure": 2}, "axes": {"seeds": 2}})");
  b.axes().arms = {{64, {2, 5, 10, 15, 20, 25, 30}},
                   {512, {5, 10, 20, 30, 40, 50, 60}}};
  b.axes().gm_placements = {GmPlacement::kCenter, GmPlacement::kCorner};
  b.axes().seeds = 3;
  return b.build();
}

ScenarioSpec make_fig4() {
  ScenarioBuilder b("fig4", ScenarioKind::kInfectionVsDistribution);
  b.title("Fig. 4 -- infection rate vs HT distribution")
      .paper_ref("Fig. 4(a) #HT = size/16, Fig. 4(b) #HT = size/8")
      .expectation(
          "center cluster > random > corner cluster at every size "
          "(paper: 1.59x and 9.85x at size 256, 1/16)")
      .epoch_cycles(1500)
      .warmup_epochs(1)
      .measure_epochs(3)
      .seed(500)
      .quick(R"({"epochs": {"measure": 2}, "axes": {"seeds": 2}})");
  b.axes().sizes = {64, 128, 256, 512};
  b.axes().ht_divisors = {16, 8};
  b.axes().seeds = 3;
  return b.build();
}

/// Shared shape of the Figs. 5-6 attack campaigns: 256 cores, Table III
/// mixes, 50% budget, victim x0.10 / attacker x8.
void attack_campaign_base(ScenarioBuilder& b) {
  b.size(256)
      .epoch_cycles(2000)
      .standard_mixes()
      .victim_scale(0.10)
      .attacker_boost(8.0)
      .warmup_epochs(2)
      .measure_epochs(5)
      .seed(42);
  b.axes().infection_targets = {0.1, 0.3, 0.5, 0.7, 0.9};
  b.axes().placement_max_hts = 64;
}

ScenarioSpec make_fig5() {
  ScenarioBuilder b("fig5", ScenarioKind::kAttackEffect);
  b.title("Fig. 5 -- attack effect Q vs infection rate (4 mixes, 256 cores)")
      .paper_ref("Fig. 5")
      .expectation(
          "Q grows with infection rate for every mix; paper peaks at "
          "Q = 6.89 (mix-4, infection 0.9)")
      .quick(R"({"epochs": {"measure": 3},
                 "axes": {"infection_targets": [0.3, 0.9]}})");
  attack_campaign_base(b);
  return b.build();
}

ScenarioSpec make_fig6() {
  ScenarioBuilder b("fig6", ScenarioKind::kPerformanceChange);
  b.title("Fig. 6 -- per-application Theta vs infection rate (4 mixes)")
      .paper_ref("Fig. 6(a)-(d)")
      .expectation(
          "attackers' Theta >= 1 and rises; victims' Theta < 1 and falls; "
          "compute-bound victims fall hardest")
      .quick(R"({"epochs": {"measure": 3},
                 "axes": {"infection_targets": [0.5]}})");
  attack_campaign_base(b);
  return b.build();
}

ScenarioSpec make_table1() {
  ScenarioBuilder b("table1", ScenarioKind::kConfigReport);
  b.title("Table I -- simulator configuration")
      .paper_ref("Table I")
      .expectation("all architecture parameters implemented 1:1 where given")
      .size(256);
  return b.build();
}

ScenarioSpec make_table2() {
  ScenarioBuilder b("table2", ScenarioKind::kBenchmarkReport);
  b.title("Tables II & III -- benchmarks and mixes")
      .paper_ref("Table II, Table III")
      .expectation(
          "11 PARSEC/SPLASH-2 profiles; 4 mixes with 1-3 "
          "attackers/victims; compute-bound apps have higher Phi")
      .epoch_cycles(1500)
      .warmup_epochs(0)
      .measure_epochs(3);
  b.axes().nodes = 64;
  return b.build();
}

ScenarioSpec make_area_power() {
  ScenarioBuilder b("secIIID-area-power", ScenarioKind::kAreaPowerReport);
  b.title("Sec. III-D -- hardware Trojan area & power vs router/chip")
      .paper_ref("Sec. III-D")
      .expectation(
          "HT ~0.017%/0.0017% of one router; 60 HTs ~0.002%/0.0002% of "
          "all routers in a 512-node chip");
  b.axes().ht_counts = {1, 10, 20, 40, 60};
  b.axes().nodes = 512;
  return b.build();
}

ScenarioSpec make_placement_study() {
  ScenarioBuilder b("secVC-placement", ScenarioKind::kPlacementStudy);
  b.title("Sec. V-C -- model-optimized vs random HT placement (16 HTs)")
      .paper_ref("Sec. V-C")
      .expectation(
          "optimized placement improves Q by ~30% (mixes 1-3) and "
          "up to ~110% (mix-4) over random")
      .size(64)
      .epoch_cycles(2000)
      .standard_mixes()
      .victim_scale(0.10)
      .attacker_boost(8.0)
      .warmup_epochs(2)
      .measure_epochs(5)
      .seed(7)
      .quick(R"({"epochs": {"measure": 3},
                 "axes": {"train_samples": 10, "random_trials": 2}})");
  b.axes().nodes = 64;
  b.axes().max_hts = 16;
  b.axes().train_samples = 24;
  b.axes().random_trials = 4;
  b.axes().candidates_per_m = 60;
  b.axes().shortlist = 3;
  return b.build();
}

ScenarioSpec make_defense_roc() {
  ScenarioBuilder b("defense-roc", ScenarioKind::kDefenseSweep);
  b.title("Defense sweep -- trust-band operating points x HT placements")
      .paper_ref("extension of Sec. VI (conclusion)")
      .expectation(
          "tight bands detect fast with some false positives and kill "
          "most of Q; loose bands go blind and let Q through")
      .size(64)
      .epoch_cycles(2000)
      .mix("mix-1")
      .victim_scale(0.10)
      .attacker_boost(8.0)
      // Mid-run activation: the detector earns honest history, then the
      // Trojans wake up (the scenario a deployed detector actually faces).
      .trojan_active(false)
      .toggle_period(3)
      .warmup_epochs(2)
      .measure_epochs(6)
      .quick(R"({"epochs": {"measure": 4},
                 "axes": {
                   "bands": [{"low": 0.6, "high": 1.6},
                             {"low": 0.3, "high": 3.0}],
                   "placements": [{"at": "gm", "hts": 8},
                                  {"at": "quarter", "hts": 8}],
                   "roc": {"periods": [2], "factors": [0.1, 0.6],
                           "placements": 1}}})");
  // Operating points: the trust band widened from tight (flag anything
  // off by ~25%) to loose (only 4x excursions).
  b.axes().bands = {
      {0.8, 1.25}, {0.6, 1.6}, {0.45, 2.2}, {0.3, 3.0}, {0.25, 4.0}};
  // The Fig. 4 arms: GM-adjacent, mid-mesh and corner clusters.
  b.axes().placements = {{ClusterSpec::At::kGm, 8},
                         {ClusterSpec::At::kQuarter, 8},
                         {ClusterSpec::At::kCorner, 8}};
  b.axes().roc.periods = {0, 2, 4};
  b.axes().roc.factors = {0.10, 0.35, 0.60, 0.80};
  b.axes().roc.placements = 2;
  b.axes().roc.epoch0_first_epoch_cycle = 600;
  return b.build();
}

ScenarioSpec make_defense_evaluation() {
  ScenarioBuilder b("defense-evaluation", ScenarioKind::kDefenseEvaluation);
  b.title(
       "Defense evaluation -- detection & mitigation of the false-data "
       "attack")
      .paper_ref("extension of Sec. VI (conclusion)")
      .expectation(
          "detector flags most victims/accomplices with no false "
          "positives; the guarded budgeter removes most of the Q "
          "excursion")
      .size(64)
      .epoch_cycles(2000)
      .standard_mixes()
      .victim_scale(0.10)
      .attacker_boost(8.0)
      // Mid-run activation for the detection arm; the runner pins the
      // damage arms to an always-on Trojan so plain and guarded runs
      // stay directly comparable.
      .trojan_active(false)
      .toggle_period(3)
      .warmup_epochs(2)
      .measure_epochs(5)
      .detector(power::DetectorConfig{})
      .quick(R"({"epochs": {"measure": 3}})");
  b.axes().cluster_hts = 8;
  b.axes().detection_measure_epochs = 6;
  return b.build();
}

ScenarioSpec make_attack_comparison() {
  ScenarioBuilder b("attack-comparison", ScenarioKind::kAttackComparison);
  b.title(
       "Attack comparison -- false-data vs flooding; duty-cycled "
       "activation")
      .paper_ref("Sec. II-B taxonomy / Sec. III-B activation control")
      .expectation(
          "the false-data attack injects zero packets (invisible to "
          "traffic counters) while flooding lights up the victim router; "
          "duty-cycling scales damage with exposure")
      .size(64)
      .epoch_cycles(2000)
      .mix("mix-1")
      .victim_scale(0.10)
      .attacker_boost(8.0)
      .warmup_epochs(2)
      .measure_epochs(5)
      .seed(7);
  b.axes().cluster_hts = 8;
  b.axes().flood_sources = {0, 7, 56, 63};
  b.axes().flood_rate = 0.15;
  b.axes().toggle_periods = {0, 4, 2, 1};
  b.axes().duty_warmup_epochs = 0;
  b.axes().duty_measure_epochs = 8;
  return b.build();
}

ScenarioSpec make_budgeter_ablation() {
  ScenarioBuilder b("budgeter-ablation", ScenarioKind::kBudgeterAblation);
  b.title(
       "Ablation -- attack effect vs budgeting algorithm (mix-1, 64 "
       "cores)")
      .paper_ref("Sec. I / II-A claim: attack is allocation-algorithm "
                 "independent")
      .expectation(
          "Q > 1 under every policy; magnitude varies with how "
          "aggressively the policy follows the (tampered) requests")
      .size(64)
      .epoch_cycles(2000)
      .mix("mix-1")
      .victim_scale(0.10)
      .attacker_boost(8.0)
      .warmup_epochs(2)
      .measure_epochs(5)
      .quick(R"({"epochs": {"measure": 3}})");
  b.axes().cluster_hts = 8;
  b.axes().budgeters = {
      power::BudgeterKind::kUniform, power::BudgeterKind::kGreedy,
      power::BudgeterKind::kProportional,
      power::BudgeterKind::kDynamicProgramming, power::BudgeterKind::kMarket};
  return b.build();
}

ScenarioSpec make_defense_closed_loop() {
  ScenarioBuilder b("defense-closed-loop", ScenarioKind::kDefenseClosedLoop);
  b.title(
       "Closed loop -- response policies x {static, adaptive} duty-cycled "
       "Trojan")
      .paper_ref("extension of Sec. VI (conclusion)")
      .expectation(
          "quarantine/throttle/migrate all recover victim grants with "
          "little collateral against the static Trojan; the adaptive "
          "Trojan halves the detection rate at equal mean duty and "
          "degrades every policy's recovery")
      .size(64)
      .epoch_cycles(2000)
      .mix("mix-1")
      .victim_scale(0.10)
      .attacker_boost(8.0)
      // Static arm: mid-run activation on a period-2 duty cycle (mean
      // duty 0.5). The adaptive arm flips to grant-feedback control at
      // the same mean duty (max_on 1 / hold_off 1).
      .trojan_active(false)
      .toggle_period(2)
      .warmup_epochs(2)
      .measure_epochs(8)
      .detector(power::DetectorConfig{})
      .response(power::ResponseConfig{})
      .adaptation(core::TrojanAdaptation{})
      .quick(R"({"epochs": {"measure": 6},
                 "axes": {"placements": [{"at": "gm", "hts": 8}]}})");
  b.axes().placements = {{ClusterSpec::At::kGm, 8},
                         {ClusterSpec::At::kQuarter, 8}};
  b.axes().responses = {power::ResponseKind::kQuarantine,
                        power::ResponseKind::kThrottle,
                        power::ResponseKind::kMigrate};
  return b.build();
}

}  // namespace

const std::vector<ScenarioSpec>& registry() {
  static const std::vector<ScenarioSpec> specs = [] {
    std::vector<ScenarioSpec> all;
    all.push_back(make_fig3());
    all.push_back(make_fig4());
    all.push_back(make_fig5());
    all.push_back(make_fig6());
    all.push_back(make_table1());
    all.push_back(make_table2());
    all.push_back(make_area_power());
    all.push_back(make_placement_study());
    all.push_back(make_defense_roc());
    all.push_back(make_defense_evaluation());
    all.push_back(make_attack_comparison());
    all.push_back(make_budgeter_ablation());
    all.push_back(make_defense_closed_loop());
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
