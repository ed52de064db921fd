// The scenario runner's acceptance contract:
//  1. Bit-identity with the legacy bench path -- executing the registry's
//     "fig3" and "defense-roc" specs at --quick produces, double for
//     double, the numbers the hand-rolled bench mains produced before the
//     port (their config-assembly code is replicated inline here as the
//     reference).
//  2. Seed determinism -- same seed, same result tree; different seed,
//     different tree (no stochastic entry point hides a default Rng).
//  3. Thread invariance -- the tree is identical at 1 and N threads.
//  4. Trace record/replay -- the scenario-level trace surface agrees with
//     power::replay_detector, including through disk persistence.
#include "scenario/runner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/campaign.hpp"
#include "core/infection.hpp"
#include "core/placement.hpp"
#include "power/request_trace.hpp"
#include "scenario/registry.hpp"
#include "workload/application.hpp"

namespace htpb::scenario {
namespace {

json::Value run_quick(const char* name, int threads = 0) {
  RunOptions opts;
  opts.quick = true;
  opts.threads = threads;
  return run_scenario(scenario_or_throw(name), opts);
}

/// Wall-clock seconds are the one non-deterministic part of a result.
json::Value without_timing(json::Value v) {
  v.as_object()["timing"] = json::Value();
  v.as_object()["threads"] = json::Value();
  return v;
}

/// `spec` at 1 and 3 threads must dump identically (timing aside).
void expect_thread_count_invariant(const ScenarioSpec& spec) {
  RunOptions one;
  one.threads = 1;
  RunOptions three;
  three.threads = 3;
  EXPECT_EQ(json::dump(without_timing(run_scenario(spec, one)), 0),
            json::dump(without_timing(run_scenario(spec, three)), 0));
}

// ---------------------------------------------------------------- fig3

TEST(ScenarioRunner, Fig3QuickBitIdenticalToLegacyBenchPath) {
  const json::Value result = run_quick("fig3", 1);
  const json::Array& arms = result.as_object().find("arms")->as_array();

  // The pre-port bench_fig3 main, verbatim (its quick-mode constants:
  // 2 seeds, 1 warmup + 2 measure epochs, Rng(1000 + s*77 + hts)).
  const int seeds = 2;
  struct Arm {
    int nodes;
    std::vector<int> ht_counts;
  };
  const std::vector<Arm> legacy_arms = {
      {64, {2, 5, 10, 15, 20, 25, 30}},
      {512, {5, 10, 20, 30, 40, 50, 60}},
  };
  ASSERT_EQ(arms.size(), legacy_arms.size());

  for (std::size_t a = 0; a < legacy_arms.size(); ++a) {
    const Arm& arm = legacy_arms[a];
    const json::Object& arm_out = arms[a].as_object();
    EXPECT_EQ(arm_out.find("nodes")->as_int(), arm.nodes);
    const json::Array& rows = arm_out.find("rows")->as_array();
    ASSERT_EQ(rows.size(), arm.ht_counts.size());
    for (std::size_t h = 0; h < arm.ht_counts.size(); ++h) {
      const int hts = arm.ht_counts[h];
      const json::Array& cells = rows[h].as_object().find("cells")->as_array();
      ASSERT_EQ(cells.size(), 2U);
      const system::GmPlacement placements[2] = {
          system::GmPlacement::kCenter, system::GmPlacement::kCorner};
      for (int p = 0; p < 2; ++p) {
        core::CampaignConfig cfg;
        const auto [width, height] = mesh_for_size(arm.nodes);
        cfg.system.width = width;
        cfg.system.height = height;
        cfg.system.epoch_cycles = 1500;
        cfg.system.gm_placement = placements[p];
        cfg.mix = std::nullopt;
        cfg.warmup_epochs = 1;
        cfg.measure_epochs = 2;
        core::AttackCampaign campaign(cfg);
        const MeshGeometry geom(cfg.system.width, cfg.system.height);
        const core::InfectionAnalyzer analyzer(geom, campaign.gm_node());
        double sim_rate = 0.0;
        double ana_rate = 0.0;
        for (int s = 0; s < seeds; ++s) {
          Rng rng(1000 + static_cast<std::uint64_t>(s) * 77 + hts);
          const auto nodes =
              core::random_placement(geom, hts, rng, campaign.gm_node());
          sim_rate += campaign.simulate(nodes).infection;
          ana_rate += analyzer.predicted_rate(nodes);
        }
        const json::Object& cell = cells[p].as_object();
        EXPECT_EQ(cell.find("simulated")->as_double(), sim_rate / seeds)
            << arm.nodes << " nodes, " << hts << " HTs, placement " << p;
        EXPECT_EQ(cell.find("analytic")->as_double(), ana_rate / seeds);
      }
    }
  }
}

// ---------------------------------------------------------- defense-roc

/// One defense-roc curve point, rebuilt without traces: every (band,
/// placement) cell and the clean arm re-simulated with an in-simulation
/// detector of their own, and the guard arm against its own baseline.
struct CurvePoint {
  double detection_rate = 0.0;
  double victim_flag_rate = 0.0;
  double attacker_flag_rate = 0.0;
  double false_positive_rate = 0.0;
  double mean_detection_latency = -1.0;
  double mean_q_plain = 0.0;
  double mean_q_guarded = 0.0;
};

/// Mean Q of `placements` on `campaign`, over the q_valid runs.
double mean_q(const core::AttackCampaign& campaign,
              const std::vector<std::vector<NodeId>>& placements) {
  const core::RunResult baseline = campaign.simulate({});
  double sum = 0.0;
  int n = 0;
  for (const auto& hts : placements) {
    const core::CampaignOutcome out =
        campaign.reduce(campaign.simulate(hts), baseline, hts);
    if (out.q_valid) {
      sum += out.q;
      ++n;
    }
  }
  return n > 0 ? sum / n : 0.0;
}

/// Cores a detector watches on `campaign`'s chip: {victims, attackers}.
std::pair<int, int> monitored_cores(const core::AttackCampaign& campaign) {
  int victims = 0;
  int attackers = 0;
  for (const auto& app : campaign.apps()) {
    (app.is_attacker() ? attackers : victims) +=
        static_cast<int>(app.cores.size());
  }
  return {victims, attackers};
}

CurvePoint in_sim_curve_point(
    const core::CampaignConfig& base, const power::DetectorConfig& band,
    const std::vector<std::vector<NodeId>>& placements) {
  core::CampaignConfig detect_cfg = base;
  detect_cfg.detector = band;
  const core::AttackCampaign detect(detect_cfg);
  const auto [victims, attackers] = monitored_cores(detect);
  const int monitored = victims + attackers;
  CurvePoint pt;
  double latency_sum = 0.0;
  int latency_n = 0;
  for (const auto& hts : placements) {
    const power::DetectorReport rep = detect.simulate(hts).detection.value();
    pt.detection_rate +=
        static_cast<double>(rep.unique_flagged()) / monitored;
    pt.victim_flag_rate +=
        static_cast<double>(rep.flagged_low.size()) / victims;
    pt.attacker_flag_rate +=
        static_cast<double>(rep.flagged_high.size()) / attackers;
    if (rep.first_flag_epoch >= 0) {
      latency_sum += rep.first_flag_epoch;
      ++latency_n;
    }
  }
  const auto n = static_cast<double>(placements.size());
  pt.detection_rate /= n;
  pt.victim_flag_rate /= n;
  pt.attacker_flag_rate /= n;
  if (latency_n > 0) pt.mean_detection_latency = latency_sum / latency_n;
  pt.mean_q_plain = mean_q(detect, placements);

  core::CampaignConfig clean_cfg = detect_cfg;
  clean_cfg.trojan.active = false;
  clean_cfg.toggle_period_epochs = 0;
  const power::DetectorReport clean =
      core::AttackCampaign(clean_cfg).simulate(placements.front())
          .detection.value();
  pt.false_positive_rate =
      static_cast<double>(clean.unique_flagged()) / monitored;

  core::CampaignConfig guard_cfg = base;
  guard_cfg.system.guard = band;
  pt.mean_q_guarded = mean_q(core::AttackCampaign(guard_cfg), placements);
  return pt;
}

void expect_curve_point(const json::Value& tree_point, const CurvePoint& ref,
                        const std::string& ctx) {
  const json::Object& pt = tree_point.as_object();
  EXPECT_EQ(pt.find("detection_rate")->as_double(), ref.detection_rate)
      << ctx;
  EXPECT_EQ(pt.find("victim_flag_rate")->as_double(), ref.victim_flag_rate)
      << ctx;
  EXPECT_EQ(pt.find("attacker_flag_rate")->as_double(),
            ref.attacker_flag_rate)
      << ctx;
  EXPECT_EQ(pt.find("false_positive_rate")->as_double(),
            ref.false_positive_rate)
      << ctx;
  EXPECT_EQ(pt.find("mean_detection_latency")->as_double(),
            ref.mean_detection_latency)
      << ctx;
  EXPECT_EQ(pt.find("mean_q_plain")->as_double(), ref.mean_q_plain) << ctx;
  EXPECT_EQ(pt.find("mean_q_guarded")->as_double(), ref.mean_q_guarded)
      << ctx;
}

const json::Array& curve_points(const json::Value& tree) {
  return tree.as_object().find("curve")->as_object().find("points")
      ->as_array();
}

TEST(ScenarioRunner, DefenseRocQuickBitIdenticalToLegacyBenchPath) {
  const json::Value result = run_quick("defense-roc");
  const json::Object& root = result.as_object();

  // The pre-port bench_defense_sweep main's campaign (its quick-mode
  // constants: 2 bands, 2 placements, measure 4, ROC periods {2},
  // factors {0.10, 0.60}, 1 ROC placement), each curve cell simulated
  // with its own in-simulation detector.
  core::CampaignConfig base;
  base.system.width = 8;
  base.system.height = 8;
  base.system.epoch_cycles = 2000;
  base.mix = workload::standard_mixes().at(0);
  base.trojan.victim_scale = 0.10;
  base.trojan.attacker_boost = 8.0;
  base.trojan.active = false;
  base.toggle_period_epochs = 3;
  base.warmup_epochs = 2;
  base.measure_epochs = 4;
  std::vector<power::DetectorConfig> bands;
  for (const auto& [lo, hi] : {std::pair{0.6, 1.6}, std::pair{0.3, 3.0}}) {
    power::DetectorConfig d;
    d.low_ratio = lo;
    d.high_ratio = hi;
    bands.push_back(d);
  }
  const core::AttackCampaign probe(base);
  const MeshGeometry geom(8, 8);
  std::vector<std::vector<NodeId>> placements;
  placements.push_back(core::clustered_placement(
      geom, 8, geom.coord_of(probe.gm_node()), probe.gm_node()));
  placements.push_back(core::clustered_placement(
      geom, 8, Coord{geom.width() / 4, geom.height() / 4}, probe.gm_node()));

  const json::Array& points = curve_points(result);
  ASSERT_EQ(points.size(), bands.size());
  for (std::size_t i = 0; i < bands.size(); ++i) {
    const json::Object& pt = points[i].as_object();
    EXPECT_EQ(pt.find("low")->as_double(), bands[i].low_ratio);
    EXPECT_EQ(pt.find("high")->as_double(), bands[i].high_ratio);
    expect_curve_point(points[i], in_sim_curve_point(base, bands[i], placements),
                       "band " + std::to_string(i));
  }

  // ROC grid (legacy quick: one dynamics axis point per period/factor,
  // detector grid = 2 kinds x 2 bands, 1 placement).
  const std::vector<int> periods = {2};
  const std::vector<double> factors = {0.10, 0.60};
  std::vector<power::DetectorConfig> roc_detectors;
  for (const auto kind :
       {power::DetectorKind::kSelfEwma, power::DetectorKind::kCohortMedian}) {
    for (const auto& [lo, hi] : {std::pair{0.6, 1.6}, std::pair{0.3, 3.0}}) {
      power::DetectorConfig d;
      d.kind = kind;
      d.low_ratio = lo;
      d.high_ratio = hi;
      roc_detectors.push_back(d);
    }
  }
  const std::vector<std::vector<NodeId>> roc_placements(
      placements.begin(), placements.begin() + 1);
  const auto [victims, attackers] = monitored_cores(probe);
  const int monitored = victims + attackers;
  const auto roc_config = [&](int period, double factor) {
    core::CampaignConfig cfg = base;
    cfg.detector.reset();
    cfg.trojan.victim_scale = factor;
    cfg.trojan.active = false;
    cfg.toggle_period_epochs = period;
    return cfg;
  };
  const std::size_t dyn_count = periods.size() * factors.size();
  std::vector<power::RequestTrace> traces;
  for (std::size_t dyn = 0; dyn < dyn_count; ++dyn) {
    for (std::size_t p = 0; p < roc_placements.size(); ++p) {
      const core::AttackCampaign campaign(
          roc_config(periods[dyn / factors.size()],
                     factors[dyn % factors.size()]));
      (void)campaign.simulate(roc_placements[p], &traces.emplace_back());
    }
  }
  core::CampaignConfig clean_cfg = base;
  clean_cfg.trojan.active = false;
  clean_cfg.toggle_period_epochs = 0;
  power::RequestTrace clean_trace;
  (void)core::AttackCampaign(clean_cfg).simulate(roc_placements.front(),
                                                 &clean_trace);

  const json::Array& roc_points =
      root.find("roc")->as_object().find("points")->as_array();
  ASSERT_EQ(roc_points.size(), dyn_count * roc_detectors.size());
  std::size_t i = 0;
  for (std::size_t dyn = 0; dyn < dyn_count; ++dyn) {
    for (std::size_t d = 0; d < roc_detectors.size(); ++d, ++i) {
      const json::Object& pt = roc_points[i].as_object();
      double detect = 0.0;
      double latency_sum = 0.0;
      int latency_n = 0;
      for (std::size_t p = 0; p < roc_placements.size(); ++p) {
        const auto rep = power::replay_detector(
            traces[dyn * roc_placements.size() + p], roc_detectors[d]);
        detect += static_cast<double>(rep.unique_flagged()) / monitored;
        if (rep.first_flag_epoch >= 0) {
          latency_sum += rep.first_flag_epoch;
          ++latency_n;
        }
      }
      detect /= static_cast<double>(roc_placements.size());
      const auto clean_rep =
          power::replay_detector(clean_trace, roc_detectors[d]);
      EXPECT_EQ(pt.find("period")->as_int(),
                periods[dyn / factors.size()]);
      EXPECT_EQ(pt.find("factor")->as_double(),
                factors[dyn % factors.size()]);
      EXPECT_EQ(pt.find("kind")->as_string(),
                to_string(roc_detectors[d].kind));
      EXPECT_EQ(pt.find("detect")->as_double(), detect);
      EXPECT_EQ(pt.find("fp")->as_double(),
                static_cast<double>(clean_rep.unique_flagged()) / monitored);
      EXPECT_EQ(pt.find("latency")->as_double(),
                latency_n > 0 ? latency_sum / latency_n : -1.0);
    }
  }
}

/// A small defense sweep: a 64-core chip whose Trojans wake mid-run (so
/// flags fire), two placements, no ROC grid unless a test adds one.
ScenarioSpec small_defense_spec() {
  ScenarioSpec s;
  s.name = "small-defense";
  s.kind = ScenarioKind::kDefenseSweep;
  s.system.width = 8;
  s.system.height = 8;
  s.system.epoch_cycles = 1000;
  s.workload.mix = "mix-1";
  s.trojan.victim_scale = 0.10;
  s.trojan.attacker_boost = 8.0;
  s.trojan.active = false;
  s.trojan.toggle_period_epochs = 2;
  s.epochs = {1, 4};
  s.axes.bands = {{0.6, 1.6}, {0.2, 5.0}};
  s.axes.placements = {{ClusterSpec::At::kGm, 8},
                       {ClusterSpec::At::kCorner, 4}};
  s.validate();
  return s;
}

/// small_defense_spec()'s campaign sections, detector-free.
core::CampaignConfig small_defense_base(const ScenarioSpec& s) {
  core::CampaignConfig cfg = campaign_config(s, "mix-1");
  cfg.detector.reset();
  return cfg;
}

/// small_defense_spec()'s placements, resolved on `base`'s chip.
std::vector<std::vector<NodeId>> small_defense_placements(
    const core::CampaignConfig& base) {
  const MeshGeometry geom(base.system.width, base.system.height);
  const NodeId gm = core::AttackCampaign(base).gm_node();
  return {core::clustered_placement(geom, 8, geom.coord_of(gm), gm),
          core::clustered_placement(geom, 4, MeshGeometry::corner(), gm)};
}

// defense-roc counts its simulations off its own job list: the count is
// every chip it simulates (the period-0 clean trace included), and the
// tree does not depend on the thread count.
TEST(ScenarioRunner, DefenseRocCountsEverySimulationOnce) {
  const ScenarioSpec registered = scenario_or_throw("defense-roc").with_quick();
  ScenarioSpec epoch0 = registered;
  epoch0.axes.roc.periods = {0, 2};
  RunOptions one;
  one.threads = 1;
  RunOptions four;
  four.threads = 4;
  for (const bool period0 : {false, true}) {
    const ScenarioSpec& spec = period0 ? epoch0 : registered;
    const std::uint64_t before = core::AttackCampaign::systems_simulated();
    const json::Value tree = run_scenario(spec, one);
    const std::uint64_t systems =
        core::AttackCampaign::systems_simulated() - before;
    const json::Object& curve = tree.as_object().find("curve")->as_object();
    const json::Object& roc = tree.as_object().find("roc")->as_object();
    EXPECT_EQ(static_cast<std::uint64_t>(curve.find("simulations")->as_int() +
                                         roc.find("simulations")->as_int()),
              systems)
        << "period 0: " << period0;
    // R x C traced cells, plus the period-0 clean trace.
    EXPECT_EQ(roc.find("simulations")->as_int(),
              roc.find("dynamics_cells")->as_int() *
                      roc.find("placements")->as_int() +
                  (period0 ? 1 : 0));
    EXPECT_EQ(json::dump(without_timing(tree), 0),
              json::dump(without_timing(run_scenario(spec, four)), 0));
  }
}

TEST(ScenarioRunner, DefenseSweepCurveIsThreadCountInvariant) {
  // 2 bands x 2 placements: 10 simulations and 6 replays over 3 threads.
  expect_thread_count_invariant(small_defense_spec());
}

TEST(ScenarioRunner, DefenseSweepTightBandDetectsBlindBandDoesNot) {
  ScenarioSpec spec = small_defense_spec();
  // A band so loose the 10x/8x excursion fits inside it.
  spec.axes.bands = {{0.6, 1.6}, {0.05, 20.0}};
  spec.axes.placements.resize(1);  // the GM-adjacent cluster
  const json::Value tree = run_scenario(spec);
  const json::Array& points = curve_points(tree);
  ASSERT_EQ(points.size(), 2U);
  for (const json::Value& v : points) {
    const json::Object& pt = v.as_object();
    EXPECT_GE(pt.find("detection_rate")->as_double(), 0.0);
    EXPECT_LE(pt.find("detection_rate")->as_double(), 1.0);
    EXPECT_GE(pt.find("false_positive_rate")->as_double(), 0.0);
    EXPECT_LE(pt.find("false_positive_rate")->as_double(), 1.0);
  }
  const json::Object& tight = points[0].as_object();
  const json::Object& blind = points[1].as_object();
  EXPECT_GT(tight.find("detection_rate")->as_double(), 0.0);
  EXPECT_GE(tight.find("mean_detection_latency")->as_double(), 0.0);
  EXPECT_EQ(blind.find("detection_rate")->as_double(), 0.0);
  EXPECT_EQ(blind.find("mean_detection_latency")->as_double(), -1.0);
  // The guard arm ran and produced a valid mean Q.
  EXPECT_GT(tight.find("mean_q_guarded")->as_double(), 0.0);
}

// Record once, replay many: every curve and ROC point -- the clean
// arms' false-positive rates included -- equals the point rebuilt by
// re-simulating each cell with its own in-simulation detector. The ROC
// grid holds a period 0, so the period-0 clean trace and the cohort
// detector are covered too.
TEST(ScenarioRunner, DefenseSweepMatchesPerCellResimulation) {
  ScenarioSpec spec = small_defense_spec();
  // Longer epochs and a band tight enough to false-alarm on clean
  // traffic, so some false-positive rate is nonzero and differs between
  // the spec's timing and the period-0 one.
  spec.system.epoch_cycles = 2000;
  spec.axes.bands = {{0.6, 1.6}, {0.85, 1.18}};
  spec.axes.roc.periods = {0, 2};
  spec.axes.roc.factors = {0.10};
  spec.axes.roc.placements = 1;
  spec.validate();
  RunOptions four;
  four.threads = 4;
  const json::Value tree = run_scenario(spec, four);

  const core::CampaignConfig base = small_defense_base(spec);
  const auto placements = small_defense_placements(base);
  const json::Array& points = curve_points(tree);
  ASSERT_EQ(points.size(), spec.axes.bands.size());
  for (std::size_t d = 0; d < points.size(); ++d) {
    power::DetectorConfig band;
    band.low_ratio = spec.axes.bands[d].low;
    band.high_ratio = spec.axes.bands[d].high;
    expect_curve_point(points[d], in_sim_curve_point(base, band, placements),
                       "band " + std::to_string(d));
  }

  const auto [victims, attackers] =
      monitored_cores(core::AttackCampaign(base));
  const int monitored = victims + attackers;
  const json::Array& roc_points =
      tree.as_object().find("roc")->as_object().find("points")->as_array();
  ASSERT_EQ(roc_points.size(), 2U * 2U * spec.axes.bands.size());
  std::map<int, std::vector<double>> fp_by_period;
  for (const json::Value& v : roc_points) {
    const json::Object& pt = v.as_object();
    power::DetectorConfig d;
    d.kind = pt.find("kind")->as_string() == to_string(power::DetectorKind::kCohortMedian)
                 ? power::DetectorKind::kCohortMedian
                 : power::DetectorKind::kSelfEwma;
    d.low_ratio = pt.find("lo")->as_double();
    d.high_ratio = pt.find("hi")->as_double();
    const int period = pt.find("period")->as_int();
    core::CampaignConfig cell = base;
    cell.detector = d;
    cell.trojan.victim_scale = pt.find("factor")->as_double();
    cell.trojan.active = period == 0;
    cell.toggle_period_epochs = period;
    if (period == 0) {
      cell.system.first_epoch_cycle = spec.axes.roc.epoch0_first_epoch_cycle;
    }
    const power::DetectorReport rep =
        core::AttackCampaign(cell).simulate(placements.front())
            .detection.value();
    core::CampaignConfig clean = cell;
    clean.trojan.active = false;
    clean.toggle_period_epochs = 0;
    clean.trojan.victim_scale = base.trojan.victim_scale;
    const power::DetectorReport clean_rep =
        core::AttackCampaign(clean).simulate(placements.front())
            .detection.value();
    const std::string ctx = "period " + std::to_string(period) + ", " +
                            pt.find("kind")->as_string() + " " +
                            std::to_string(d.low_ratio);
    EXPECT_EQ(pt.find("detect")->as_double(),
              static_cast<double>(rep.unique_flagged()) / monitored)
        << ctx;
    EXPECT_EQ(pt.find("latency")->as_double(),
              rep.first_flag_epoch >= 0 ? rep.first_flag_epoch : -1.0)
        << ctx;
    EXPECT_EQ(pt.find("fp")->as_double(),
              static_cast<double>(clean_rep.unique_flagged()) / monitored)
        << ctx;
    fp_by_period[period].push_back(pt.find("fp")->as_double());
  }
  // Not vacuous: the two clean traces disagree somewhere.
  EXPECT_NE(fp_by_period[0], fp_by_period[2]);
}

// A defense sweep's `detector` section is the base every band varies:
// each curve point (its guard included) and each ROC point equals
// in-simulation detection with that section's other parameters, and the
// section moves the tree.
TEST(ScenarioRunner, DefenseSweepBandsInheritTheDetectorSection) {
  ScenarioSpec spec = small_defense_spec();
  power::DetectorConfig section;
  section.confirm_epochs = 1;
  spec.detector = section;
  spec.axes.roc.periods = {2};
  spec.axes.roc.factors = {0.10};
  spec.axes.roc.placements = 1;
  spec.validate();
  RunOptions four;
  four.threads = 4;
  const json::Value tree = run_scenario(spec, four);

  const core::CampaignConfig base = small_defense_base(spec);
  const auto placements = small_defense_placements(base);
  const json::Array& points = curve_points(tree);
  ASSERT_EQ(points.size(), spec.axes.bands.size());
  for (std::size_t d = 0; d < points.size(); ++d) {
    power::DetectorConfig band = section;
    band.low_ratio = spec.axes.bands[d].low;
    band.high_ratio = spec.axes.bands[d].high;
    expect_curve_point(points[d], in_sim_curve_point(base, band, placements),
                       "band " + std::to_string(d));
  }

  const auto [victims, attackers] =
      monitored_cores(core::AttackCampaign(base));
  const int monitored = victims + attackers;
  const json::Array& roc_points =
      tree.as_object().find("roc")->as_object().find("points")->as_array();
  ASSERT_EQ(roc_points.size(), 2U * spec.axes.bands.size());
  for (const json::Value& v : roc_points) {
    const json::Object& pt = v.as_object();
    power::DetectorConfig d = section;
    d.kind = pt.find("kind")->as_string() ==
                     to_string(power::DetectorKind::kCohortMedian)
                 ? power::DetectorKind::kCohortMedian
                 : power::DetectorKind::kSelfEwma;
    d.low_ratio = pt.find("lo")->as_double();
    d.high_ratio = pt.find("hi")->as_double();
    core::CampaignConfig cell = base;
    cell.detector = d;
    cell.trojan.victim_scale = pt.find("factor")->as_double();
    cell.toggle_period_epochs = pt.find("period")->as_int();
    const power::DetectorReport rep =
        core::AttackCampaign(cell).simulate(placements.front())
            .detection.value();
    const std::string ctx =
        pt.find("kind")->as_string() + " " + std::to_string(d.low_ratio);
    EXPECT_EQ(pt.find("detect")->as_double(),
              static_cast<double>(rep.unique_flagged()) / monitored)
        << ctx;
    EXPECT_EQ(pt.find("latency")->as_double(),
              rep.first_flag_epoch >= 0 ? rep.first_flag_epoch : -1.0)
        << ctx;
  }

  ScenarioSpec stock = spec;
  stock.detector.reset();
  EXPECT_NE(json::dump(without_timing(tree), 0),
            json::dump(without_timing(run_scenario(stock, four)), 0));
}

// Regression for the detection-rate double count: rates are fractions of
// distinct flagged cores and never exceed 1, even when duty-cycle swings
// land a core in both flag lists.
TEST(ScenarioRunner, DefenseSweepDetectionRateCountsDistinctCores) {
  ScenarioSpec spec = small_defense_spec();
  // A band so tight, over a run so long, that the duty-cycled Trojan's
  // ON and OFF phases both leave it: the dual-flag (low AND high) case
  // that used to double count.
  spec.axes.bands = {{0.95, 1.05}};
  spec.axes.placements.resize(1);
  spec.epochs.measure = 6;
  const json::Value tree = run_scenario(spec);
  const json::Object& pt = curve_points(tree)[0].as_object();

  const core::CampaignConfig base = small_defense_base(spec);
  const auto [victims, attackers] =
      monitored_cores(core::AttackCampaign(base));
  // One placement, so each rate times its population is a core count.
  const double distinct =
      pt.find("detection_rate")->as_double() * (victims + attackers);
  const double listed = pt.find("victim_flag_rate")->as_double() * victims +
                        pt.find("attacker_flag_rate")->as_double() * attackers;
  // The case is live: at least one core sits in both lists.
  EXPECT_LT(std::lround(distinct), std::lround(listed));
  EXPECT_GT(pt.find("detection_rate")->as_double(), 0.0);
  EXPECT_LE(pt.find("detection_rate")->as_double(), 1.0);
}

// defense-roc reads no response axis: response arms live only in
// defense-closed-loop, so listing policies on a defense-roc spec must
// neither change its tree nor add a single simulation.
TEST(ScenarioRunner, DefenseRocIgnoresResponseAxis) {
  const ScenarioSpec& registered = scenario_or_throw("defense-roc");
  ScenarioSpec with_responses = registered;
  with_responses.axes.responses = {power::ResponseKind::kQuarantine,
                                   power::ResponseKind::kMigrate};
  RunOptions quick;
  quick.quick = true;
  EXPECT_EQ(json::dump(without_timing(run_scenario(registered, quick)), 0),
            json::dump(without_timing(run_scenario(with_responses, quick)),
                       0));
}

// ----------------------------------------------- seeds, threads, traces

/// A deliberately small stochastic scenario (one mix, one coverage
/// target) so the determinism properties are cheap to assert.
ScenarioSpec small_attack_spec() {
  ScenarioSpec s;
  s.name = "small-attack";
  s.kind = ScenarioKind::kAttackEffect;
  s.system.width = 8;
  s.system.height = 8;
  s.system.epoch_cycles = 1500;
  s.trojan.victim_scale = 0.10;
  s.trojan.attacker_boost = 8.0;
  s.epochs = {1, 2};
  s.workload.mixes = {"mix-1"};
  s.axes.infection_targets = {0.5};
  s.axes.max_hts = 16;
  s.validate();
  return s;
}

TEST(ScenarioRunner, SameSeedSameResultDifferentSeedDiffers) {
  const ScenarioSpec spec = small_attack_spec();
  const json::Value a = without_timing(run_scenario(spec));
  const json::Value b = without_timing(run_scenario(spec));
  EXPECT_EQ(json::dump(a, 0), json::dump(b, 0));

  RunOptions reseeded;
  reseeded.seed = 999;
  const json::Value c = without_timing(run_scenario(spec, reseeded));
  EXPECT_NE(json::dump(a, 0), json::dump(c, 0));
}

TEST(ScenarioRunner, ResultIsThreadCountInvariant) {
  const ScenarioSpec spec = small_attack_spec();
  RunOptions one;
  one.threads = 1;
  RunOptions four;
  four.threads = 4;
  EXPECT_EQ(json::dump(without_timing(run_scenario(spec, one)), 0),
            json::dump(without_timing(run_scenario(spec, four)), 0));

  // 2 mixes x 2 targets: the sweep fans every mix x target leg flat, and
  // 3 threads split those 4 legs (and the 2 baselines) unevenly.
  ScenarioSpec wide = spec;
  wide.workload.mixes = {"mix-1", "mix-2"};
  wide.axes.infection_targets = {0.3, 0.6};
  RunOptions three;
  three.threads = 3;
  const json::Value serial = without_timing(run_scenario(wide, one));
  EXPECT_EQ(json::dump(serial, 0),
            json::dump(without_timing(run_scenario(wide, three)), 0));

  // Each flat leg lands in its own mix's rows: the second mix reads the
  // same as a sweep over that mix alone.
  ScenarioSpec second = wide;
  second.workload.mixes = {"mix-2"};
  const json::Value alone = run_scenario(second, three);
  const json::Array& mixes = serial.as_object().find("mixes")->as_array();
  ASSERT_EQ(mixes.size(), 2U);
  EXPECT_EQ(json::dump(mixes[1], 0),
            json::dump(alone.as_object().find("mixes")->as_array()[0], 0));
}

TEST(ScenarioRunner, Fig3IsThreadCountInvariant) {
  // 2 HT counts x 2 GM placements x 2 seeds = 8 flat legs over 3 threads.
  ScenarioSpec spec = scenario_or_throw("fig3").with_quick();
  spec.axes.arms = {{64, {5, 10}}};
  spec.axes.seeds = 2;
  expect_thread_count_invariant(spec);
}

TEST(ScenarioRunner, Fig4IsThreadCountInvariant) {
  // 2 divisors x 2 sizes x (center, corner, 2 random seeds) = 16 legs.
  ScenarioSpec spec = scenario_or_throw("fig4").with_quick();
  spec.axes.sizes = {64, 128};
  expect_thread_count_invariant(spec);
}

TEST(ScenarioRunner, DefenseEvaluationIsThreadCountInvariant) {
  // 2 mixes x 6 simulations (4 arms, 2 baselines) over 3 threads.
  ScenarioSpec spec = scenario_or_throw("defense-evaluation").with_quick();
  spec.workload.mixes = {"mix-1", "mix-2"};
  expect_thread_count_invariant(spec);
}

TEST(ScenarioRunner, BudgeterAblationIsThreadCountInvariant) {
  // 3 policies x (baseline + attacked run) over 3 threads.
  ScenarioSpec spec = scenario_or_throw("budgeter-ablation").with_quick();
  spec.axes.budgeters = {power::BudgeterKind::kUniform,
                         power::BudgeterKind::kGreedy,
                         power::BudgeterKind::kMarket};
  expect_thread_count_invariant(spec);
}

TEST(ScenarioRunner, AttackComparisonIsThreadCountInvariant) {
  // False-data baseline and attack, the flooders, the duty baseline and
  // four duty periods: 8 simulations over 3 threads.
  expect_thread_count_invariant(
      scenario_or_throw("attack-comparison").with_quick());
}

TEST(ScenarioRunner, Table2IsThreadCountInvariant) {
  // One solo-benchmark chip per profile: 11 simulations over 3 threads.
  expect_thread_count_invariant(scenario_or_throw("table2").with_quick());
}

// Each quantity has one key, and the kinds read it: the chip from
// `system`, the attacked cluster from `axes.placements`.
TEST(ScenarioRunner, AreaPowerReadsTheChipFromSystem) {
  ScenarioSpec spec = scenario_or_throw("secIIID-area-power");
  spec.system.width = 8;
  spec.system.height = 8;
  EXPECT_EQ(run_scenario(spec).as_object().find("chip_nodes")->as_int(), 64);
}

TEST(ScenarioRunner, BudgeterAblationAttacksItsPlacement) {
  ScenarioSpec spec = scenario_or_throw("budgeter-ablation").with_quick();
  spec.axes.budgeters = {power::BudgeterKind::kProportional};
  const json::Value gm = without_timing(run_scenario(spec));
  spec.axes.placements = {{ClusterSpec::At::kCorner, 8}};
  const json::Value corner = without_timing(run_scenario(spec));
  EXPECT_NE(json::dump(gm, 0), json::dump(corner, 0));
}

// Chips and warmup epochs each kind simulates at --quick: one baseline
// per distinct chip side plus one run per arm. A fan-out that simulates
// a baseline twice, or drops one, fails here.
TEST(ScenarioRunner, QuickSimulationCountsArePinned) {
  struct Pin {
    const char* scenario;
    std::uint64_t systems;
    std::uint64_t warmup_epochs;
  };
  const Pin pins[] = {
      {"fig5", 12, 24},
      {"secVC-placement", 64, 128},
      {"defense-roc", 12, 24},
      {"defense-evaluation", 24, 48},
      {"table2", 11, 0},
      {"attack-comparison", 8, 6},
      {"budgeter-ablation", 10, 20},
      {"defense-closed-loop", 7, 14},
  };
  for (const Pin& pin : pins) {
    const std::uint64_t systems = core::AttackCampaign::systems_simulated();
    const std::uint64_t warmup =
        core::AttackCampaign::warmup_epochs_simulated();
    (void)run_quick(pin.scenario, 2);
    EXPECT_EQ(core::AttackCampaign::systems_simulated() - systems,
              pin.systems)
        << pin.scenario;
    EXPECT_EQ(core::AttackCampaign::warmup_epochs_simulated() - warmup,
              pin.warmup_epochs)
        << pin.scenario;
  }
}

// ------------------------------------------------- defense-closed-loop

TEST(ScenarioRunner, ClosedLoopDeterministicAndThreadCountInvariant) {
  const ScenarioSpec& spec = scenario_or_throw("defense-closed-loop");
  RunOptions one;
  one.quick = true;
  one.threads = 1;
  RunOptions four;
  four.quick = true;
  four.threads = 4;
  const json::Value a = without_timing(run_scenario(spec, one));
  const json::Value b = without_timing(run_scenario(spec, one));
  const json::Value c = without_timing(run_scenario(spec, four));
  // Same seed -> bit-identical tree, including every response and
  // adaptation outcome; and the arm fan-out must not leak thread count.
  EXPECT_EQ(json::dump(a, 0), json::dump(b, 0));
  EXPECT_EQ(json::dump(a, 0), json::dump(c, 0));
}

TEST(ScenarioRunner, ClosedLoopAdaptiveTrojanEvadesAtEqualMeanDuty) {
  const json::Value result = run_quick("defense-closed-loop");
  const json::Object& root = result.as_object();

  // The headline: grant-feedback duty control beats the EWMA detector
  // that catches a blind duty cycle of the same mean exposure.
  const json::Object& cmp = root.find("duty_comparison")->as_object();
  const json::Object& fixed = cmp.find("static")->as_object();
  const json::Object& adaptive = cmp.find("adaptive")->as_object();
  EXPECT_NEAR(fixed.find("duty")->as_double(), 0.5, 0.1);
  EXPECT_NEAR(adaptive.find("duty")->as_double(), 0.5, 0.1);
  EXPECT_LT(adaptive.find("detection_rate")->as_double(),
            fixed.find("detection_rate")->as_double());
  EXPECT_GT(fixed.find("detection_rate")->as_double(), 0.5);

  // Quick trims to one placement: 2 Trojan modes x (no response + 3
  // policies), every response arm carrying its tradeoff surface.
  const json::Array& arms = root.find("arms")->as_array();
  ASSERT_EQ(arms.size(), 8U);
  int with_response = 0;
  int adaptive_arms = 0;
  for (const auto& v : arms) {
    const json::Object& row = v.as_object();
    EXPECT_GE(row.find("detection_rate")->as_double(), 0.0);
    EXPECT_LE(row.find("detection_rate")->as_double(), 1.0);
    if (row.find("response")->as_string() != "none") {
      ++with_response;
      ASSERT_NE(row.find("victim_grant_recovery"), nullptr);
      ASSERT_NE(row.find("epochs_to_recovery"), nullptr);
      ASSERT_NE(row.find("collateral"), nullptr);
    }
    if (row.find("trojan")->as_string() == "adaptive") {
      ++adaptive_arms;
      ASSERT_NE(row.find("duty"), nullptr);
    }
  }
  EXPECT_EQ(with_response, 6);
  EXPECT_EQ(adaptive_arms, 4);

  // Each policy's effect on the static Trojan at the gm placement: every
  // policy sanctions cores (with non-negative collateral) and restores
  // part of the victims' grant, quarantine starves the flagged
  // accomplices so residual Q falls below the undefended arm's, and only
  // migrate re-places (once).
  const json::Object* none = nullptr;
  std::map<std::string, const json::Object*> responded;
  for (const auto& v : arms) {
    const json::Object& row = v.as_object();
    if (row.find("placement")->as_string() != "gm" ||
        row.find("trojan")->as_string() != "static") {
      continue;
    }
    const std::string& response = row.find("response")->as_string();
    if (response == "none") {
      none = &row;
    } else {
      responded[response] = &row;
    }
  }
  ASSERT_NE(none, nullptr);
  ASSERT_EQ(responded.size(), 3U);
  for (const auto& [response, row] : responded) {
    EXPECT_GT(row->find("sanctioned_cores")->as_int(), 0) << response;
    EXPECT_GT(row->find("victim_grant_recovery")->as_double(), 0.0)
        << response;
    EXPECT_GE(row->find("collateral")->as_int(), 0) << response;
  }
  EXPECT_LT(responded.at("quarantine")->find("q")->as_double(),
            none->find("q")->as_double());
  EXPECT_EQ(responded.at("quarantine")->find("migrations")->as_int(), 0);
  EXPECT_EQ(responded.at("throttle")->find("migrations")->as_int(), 0);
  EXPECT_EQ(responded.at("migrate")->find("migrations")->as_int(), 1);
}

TEST(ScenarioRunner, TraceRecordReplayAgreesThroughDisk) {
  const ScenarioSpec spec = small_attack_spec();
  const power::RequestTrace trace = record_scenario_trace(spec);
  ASSERT_FALSE(trace.empty());

  const std::string path = "scenario_trace_roundtrip.htpbtrc";
  trace.save(path);
  const power::RequestTrace loaded = power::RequestTrace::load(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded, trace);

  // Scenario-level replay agrees with the raw power-layer replay, off
  // the in-memory trace and the loaded one alike.
  const json::Value a = replay_scenario_detectors(spec, trace);
  const json::Value b = replay_scenario_detectors(spec, loaded);
  EXPECT_EQ(json::dump(a, 0), json::dump(b, 0));
  const json::Array& reports = a.as_object().find("reports")->as_array();
  ASSERT_FALSE(reports.empty());
  const power::DetectorReport direct =
      power::replay_detector(trace, power::DetectorConfig{});
  EXPECT_EQ(static_cast<std::size_t>(
                reports[0].as_object().find("unique_flagged")->as_int()),
            direct.unique_flagged());
}

// --record-trace stops each final epoch when its last collection window
// closes. The trace must equal a full-horizon recording of the campaign
// record_scenario_trace documents, field for field.
TEST(ScenarioRunner, RecordedTraceEqualsTheFullHorizonRecording) {
  RunOptions quick;
  quick.quick = true;
  for (const ScenarioSpec& spec :
       {scenario_or_throw("defense-roc"),
        load_spec_file(std::string(HTPB_REPO_ROOT) +
                       "/examples/specs/quarantine-vs-adaptive.json")}) {
    const ScenarioSpec s = resolve(spec, quick);
    core::CampaignConfig cfg = campaign_config(
        s, s.workload.mixes.empty() ? s.workload.mix : s.workload.mixes[0]);
    cfg.detector.reset();
    cfg.response.reset();
    const core::AttackCampaign campaign(cfg);
    const ClusterSpec& cluster = s.axes.placements.front();
    ASSERT_EQ(cluster.at, ClusterSpec::At::kGm) << s.name;
    const MeshGeometry geom(s.system.width, s.system.height);
    power::RequestTrace full;
    (void)campaign.simulate(
        core::clustered_placement(geom, cluster.hts,
                                  geom.coord_of(campaign.gm_node()),
                                  campaign.gm_node()),
        &full, core::Horizon::kFull);
    ASSERT_FALSE(full.empty()) << s.name;
    EXPECT_EQ(record_scenario_trace(spec, quick), full) << s.name;
  }
}

}  // namespace
}  // namespace htpb::scenario
