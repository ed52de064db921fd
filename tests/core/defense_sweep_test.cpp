// Defense sweeps (detector configured) run through the thread pool with
// outcomes -- per-placement DetectorReports included -- bit-identical at
// 1..N threads, and every placement's detection result is independent of
// what else is in the batch (the cross-placement state leak of a shared
// detector). The defense-roc reduction itself is tested through
// run_scenario in tests/scenario/runner_test.cpp.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/parallel_sweep.hpp"
#include "core/placement.hpp"
#include "workload/application.hpp"

namespace htpb::core {
namespace {

CampaignConfig defended_config() {
  CampaignConfig cfg;
  cfg.system.width = 8;
  cfg.system.height = 8;
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

}  // namespace
}  // namespace htpb::core
