// The contract this PR exists for: defense sweeps (detector configured)
// run through the thread pool with outcomes -- per-placement
// DetectorReports included -- bit-identical at 1..N threads, and every
// placement's detection result is independent of what else is in the
// batch (the cross-placement state leak of the old shared-detector
// wiring). Plus DefenseSweep's reduction itself.
#include "core/defense_sweep.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "core/campaign.hpp"
#include "core/parallel_sweep.hpp"
#include "core/placement.hpp"
#include "workload/application.hpp"

namespace htpb::core {
namespace {

CampaignConfig defended_config() {
  CampaignConfig cfg;
  cfg.system = system::SystemConfig::with_size(64);
  cfg.system.epoch_cycles = 1000;
  cfg.mix = workload::standard_mixes().at(0);
  cfg.trojan.victim_scale = 0.10;
  cfg.trojan.attacker_boost = 8.0;
  // Mid-run activation: the detector earns honest history, then the
  // Trojans wake up -- so reports are non-trivial (flags fire).
  cfg.trojan.active = false;
  cfg.toggle_period_epochs = 2;
  cfg.warmup_epochs = 1;
  cfg.measure_epochs = 4;
  cfg.detector = power::DetectorConfig{};
  return cfg;
}

std::vector<std::vector<NodeId>> test_placements(const CampaignConfig& cfg) {
  const MeshGeometry geom(cfg.system.width, cfg.system.height);
  const AttackCampaign probe(cfg);
  const NodeId gm = probe.gm_node();
  return {
      clustered_placement(geom, 8, geom.coord_of(gm), gm),
      clustered_placement(geom, 4, MeshGeometry::corner(), gm),
      clustered_placement(geom, 6, Coord{2, 5}, gm),
  };
}

/// Every set's outcome: the sets and one shared baseline simulated across
/// a `threads`-wide pool, then reduced.
std::vector<CampaignOutcome> sweep_outcomes(
    const CampaignConfig& cfg, std::span<const std::vector<NodeId>> sets,
    int threads) {
  const AttackCampaign campaign(cfg);
  const auto runs =
      ParallelSweepRunner(threads).map(1 + sets.size(), [&](std::size_t i) {
        if (i == 0) return campaign.simulate({});
        return campaign.simulate(sets[i - 1]);
      });
  std::vector<CampaignOutcome> outs;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    outs.push_back(campaign.reduce(runs[1 + i], runs[0], sets[i]));
  }
  return outs;
}

void expect_outcomes_identical(const CampaignOutcome& a,
                               const CampaignOutcome& b,
                               const std::string& context) {
  EXPECT_EQ(a.infection_measured, b.infection_measured) << context;
  EXPECT_EQ(a.infection_predicted, b.infection_predicted) << context;
  EXPECT_EQ(a.q_valid, b.q_valid) << context;
  EXPECT_EQ(a.q, b.q) << context;
  ASSERT_EQ(a.apps.size(), b.apps.size()) << context;
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    EXPECT_EQ(a.apps[i].theta_baseline, b.apps[i].theta_baseline) << context;
    EXPECT_EQ(a.apps[i].theta_attacked, b.apps[i].theta_attacked) << context;
    EXPECT_EQ(a.apps[i].change, b.apps[i].change) << context;
    EXPECT_EQ(a.apps[i].phi, b.apps[i].phi) << context;
  }
  ASSERT_EQ(a.detection.has_value(), b.detection.has_value()) << context;
  if (a.detection.has_value()) {
    EXPECT_EQ(*a.detection, *b.detection) << context;
  }
}

// Acceptance bar: detector-equipped sweeps go through the pool (the
// serial fallback is gone) and return bit-identical outcomes, detection
// reports included, at 1, 2 and 8 threads.
TEST(DefenseSweepDeterminism, BitIdenticalAtOneTwoEightThreads) {
  const CampaignConfig cfg = defended_config();
  const auto placements = test_placements(cfg);
  const auto sweep = [&](int threads) {
    return sweep_outcomes(cfg, placements, threads);
  };

  const auto one = sweep(1);
  const auto two = sweep(2);
  const auto eight = sweep(8);

  ASSERT_EQ(one.size(), placements.size());
  ASSERT_EQ(two.size(), placements.size());
  ASSERT_EQ(eight.size(), placements.size());
  bool any_flag = false;
  for (std::size_t i = 0; i < placements.size(); ++i) {
    const std::string ctx = "placement " + std::to_string(i);
    // Every attacked run must have owned a detector and surfaced it.
    ASSERT_TRUE(one[i].detection.has_value()) << ctx;
    any_flag = any_flag || one[i].detection->any();
    expect_outcomes_identical(one[i], two[i], ctx + " (1 vs 2 threads)");
    expect_outcomes_identical(one[i], eight[i], ctx + " (1 vs 8 threads)");
  }
  // The equality above must not be vacuous: the GM-adjacent cluster
  // fires the detector.
  EXPECT_TRUE(any_flag);
}

// Regression test for the exact leak being fixed: one shared detector
// accumulated EWMA history and cumulative flags across placements, so a
// placement's report depended on its position in the batch. With owned
// per-run detectors, a placement evaluated alone, in a batch, or in a
// permuted batch reports the same thing.
TEST(DefenseSweepDeterminism, DetectionIndependentOfBatchAndOrder) {
  const CampaignConfig cfg = defended_config();
  const auto placements = test_placements(cfg);
  // A fresh campaign per batch: nothing carries over between batches.
  const auto sweep = [&](std::span<const std::vector<NodeId>> sets) {
    return sweep_outcomes(cfg, sets, 2);
  };

  const auto batch = sweep(placements);

  // Each placement alone.
  for (std::size_t i = 0; i < placements.size(); ++i) {
    const std::vector<std::vector<NodeId>> solo = {placements[i]};
    const auto alone = sweep(solo);
    ASSERT_EQ(alone.size(), 1U);
    expect_outcomes_identical(batch[i], alone[0],
                              "placement " + std::to_string(i) +
                                  " alone vs in batch");
  }

  // Reversed batch order.
  std::vector<std::vector<NodeId>> reversed(placements.rbegin(),
                                            placements.rend());
  const auto rev = sweep(reversed);
  ASSERT_EQ(rev.size(), placements.size());
  for (std::size_t i = 0; i < placements.size(); ++i) {
    expect_outcomes_identical(batch[i], rev[placements.size() - 1 - i],
                              "placement " + std::to_string(i) +
                                  " under batch permutation");
  }
}

TEST(DefenseSweep, CurveIsThreadCountInvariant) {
  DefenseSweepConfig sweep_cfg;
  sweep_cfg.base = defended_config();
  sweep_cfg.base.detector.reset();
  power::DetectorConfig tight;
  tight.low_ratio = 0.6;
  tight.high_ratio = 1.6;
  power::DetectorConfig loose;
  loose.low_ratio = 0.2;
  loose.high_ratio = 5.0;
  sweep_cfg.detectors = {tight, loose};
  sweep_cfg.placements = test_placements(sweep_cfg.base);
  sweep_cfg.placements.pop_back();  // 2x2 cells keep the test fast
  const DefenseSweep sweep(sweep_cfg);

  const auto serial = sweep.run(ParallelSweepRunner(1));
  const auto parallel = sweep.run(ParallelSweepRunner(8));

  ASSERT_EQ(serial.size(), 2U);
  ASSERT_EQ(parallel.size(), 2U);
  for (std::size_t d = 0; d < serial.size(); ++d) {
    EXPECT_EQ(serial[d].detection_rate, parallel[d].detection_rate) << d;
    EXPECT_EQ(serial[d].victim_flag_rate, parallel[d].victim_flag_rate) << d;
    EXPECT_EQ(serial[d].attacker_flag_rate, parallel[d].attacker_flag_rate)
        << d;
    EXPECT_EQ(serial[d].false_positive_rate, parallel[d].false_positive_rate)
        << d;
    EXPECT_EQ(serial[d].mean_detection_latency,
              parallel[d].mean_detection_latency)
        << d;
    EXPECT_EQ(serial[d].mean_q_plain, parallel[d].mean_q_plain) << d;
    EXPECT_EQ(serial[d].mean_q_guarded, parallel[d].mean_q_guarded) << d;
    ASSERT_EQ(serial[d].cells.size(), parallel[d].cells.size()) << d;
    for (std::size_t p = 0; p < serial[d].cells.size(); ++p) {
      expect_outcomes_identical(serial[d].cells[p].outcome,
                                parallel[d].cells[p].outcome,
                                "cell " + std::to_string(d) + "," +
                                    std::to_string(p));
    }
  }
}

TEST(DefenseSweep, ReducesToSensibleRatesAndCurveShape) {
  DefenseSweepConfig sweep_cfg;
  sweep_cfg.base = defended_config();
  sweep_cfg.base.detector.reset();
  power::DetectorConfig tight;
  tight.low_ratio = 0.6;
  tight.high_ratio = 1.6;
  power::DetectorConfig blind;  // band so loose a 10x/8x excursion fits
  blind.low_ratio = 0.05;
  blind.high_ratio = 20.0;
  sweep_cfg.detectors = {tight, blind};
  sweep_cfg.placements = {test_placements(sweep_cfg.base).front()};
  const auto curve = DefenseSweep(sweep_cfg).run(ParallelSweepRunner(4));

  ASSERT_EQ(curve.size(), 2U);
  for (const auto& pt : curve) {
    ASSERT_EQ(pt.cells.size(), 1U);
    ASSERT_TRUE(pt.cells[0].outcome.detection.has_value());
    EXPECT_GE(pt.detection_rate, 0.0);
    EXPECT_LE(pt.detection_rate, 1.0);
    EXPECT_GE(pt.false_positive_rate, 0.0);
    EXPECT_LE(pt.false_positive_rate, 1.0);
  }
  // The tight band catches the GM-adjacent cluster; the blind band lets
  // the whole excursion through (detection needs a band the Trojan's
  // factors actually cross).
  EXPECT_GT(curve[0].detection_rate, 0.0);
  EXPECT_GE(curve[0].mean_detection_latency, 0.0);
  EXPECT_EQ(curve[1].detection_rate, 0.0);
  EXPECT_EQ(curve[1].mean_detection_latency, -1.0);
  // The guard arm ran and produced a valid mean Q.
  EXPECT_GT(curve[0].mean_q_guarded, 0.0);
}

// The record-once/replay-many refactor contract: the sweep's cells --
// outcomes AND detection reports -- are bit-identical to the pre-refactor
// detection arm, which re-simulated every (detector, placement) cell with
// its own in-simulation detector. Reproduced inline here as the reference.
TEST(DefenseSweep, MatchesPerCellResimulation) {
  DefenseSweepConfig sweep_cfg;
  sweep_cfg.base = defended_config();
  sweep_cfg.base.detector.reset();
  power::DetectorConfig tight;
  tight.low_ratio = 0.6;
  tight.high_ratio = 1.6;
  power::DetectorConfig cohort;
  cohort.kind = power::DetectorKind::kCohortMedian;
  sweep_cfg.detectors = {tight, cohort};
  sweep_cfg.placements = test_placements(sweep_cfg.base);
  sweep_cfg.placements.pop_back();
  const ParallelSweepRunner runner(4);

  const auto curve = DefenseSweep(sweep_cfg).run(runner);
  ASSERT_EQ(curve.size(), sweep_cfg.detectors.size());

  // Pre-refactor detection arm: one re-simulation per cell.
  CampaignConfig detect_cfg = sweep_cfg.base;
  detect_cfg.detector.reset();
  const AttackCampaign master(detect_cfg);
  const RunResult baseline = master.simulate({});
  for (std::size_t d = 0; d < sweep_cfg.detectors.size(); ++d) {
    CampaignConfig cell_cfg = detect_cfg;
    cell_cfg.detector = sweep_cfg.detectors[d];
    const AttackCampaign cell(cell_cfg);
    for (std::size_t p = 0; p < sweep_cfg.placements.size(); ++p) {
      const auto& placement = sweep_cfg.placements[p];
      const CampaignOutcome reference =
          cell.reduce(cell.simulate(placement), baseline, placement);
      expect_outcomes_identical(curve[d].cells[p].outcome, reference,
                                "cell " + std::to_string(d) + "," +
                                    std::to_string(p));
    }
    // Pre-refactor clean arm: one re-simulation per operating point.
    CampaignConfig clean_cfg = sweep_cfg.base;
    clean_cfg.detector = sweep_cfg.detectors[d];
    clean_cfg.trojan.active = false;
    clean_cfg.toggle_period_epochs = 0;
    const auto clean_report =
        AttackCampaign(clean_cfg).simulate(sweep_cfg.placements.front())
            .detection;
    ASSERT_TRUE(clean_report.has_value());
    int monitored = 0;
    for (const auto& app : master.apps()) {
      monitored += static_cast<int>(app.cores.size());
    }
    EXPECT_EQ(curve[d].false_positive_rate,
              static_cast<double>(clean_report->unique_flagged()) / monitored);
  }
}

// Regression for the detection-rate double count: rates are fractions of
// distinct flagged cores and can never exceed 1, even when duty-cycle
// swings land a core in both flag lists.
TEST(DefenseSweep, DetectionRateIsAFractionOfDistinctCores) {
  DefenseSweepConfig sweep_cfg;
  sweep_cfg.base = defended_config();
  sweep_cfg.base.detector.reset();
  // A band so tight the duty-cycled Trojan's ON and OFF phases both leave
  // it -- the dual-flag (low AND high) scenario that used to double count.
  power::DetectorConfig paranoid;
  paranoid.low_ratio = 0.95;
  paranoid.high_ratio = 1.05;
  paranoid.confirm_epochs = 1;
  sweep_cfg.detectors = {paranoid};
  sweep_cfg.placements = {test_placements(sweep_cfg.base).front()};
  const auto curve = DefenseSweep(sweep_cfg).run(ParallelSweepRunner(2));

  ASSERT_EQ(curve.size(), 1U);
  ASSERT_TRUE(curve[0].cells[0].outcome.detection.has_value());
  const power::DetectorReport& rep = *curve[0].cells[0].outcome.detection;
  // The scenario is live: at least one core sits in both lists.
  std::size_t dual = 0;
  for (const NodeId n : rep.flagged_low) {
    for (const NodeId m : rep.flagged_high) {
      if (n == m) ++dual;
    }
  }
  EXPECT_GT(dual, 0U);
  EXPECT_LT(rep.unique_flagged(),
            rep.flagged_low.size() + rep.flagged_high.size());
  EXPECT_LE(curve[0].detection_rate, 1.0);
  EXPECT_GT(curve[0].detection_rate, 0.0);
}

TEST(DefenseSweep, RejectsEmptyAxes) {
  DefenseSweepConfig no_detectors;
  no_detectors.base = defended_config();
  no_detectors.placements = {{NodeId{1}}};
  EXPECT_THROW(DefenseSweep{no_detectors}, std::invalid_argument);

  DefenseSweepConfig no_placements;
  no_placements.base = defended_config();
  no_placements.detectors = {power::DetectorConfig{}};
  EXPECT_THROW(DefenseSweep{no_placements}, std::invalid_argument);
}

}  // namespace
}  // namespace htpb::core
