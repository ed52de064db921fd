// ParallelSweepRunner's contract: a sweep is a pure function of
// (config, task inputs, seed) -- the thread count must never leak into
// the results, and ordering must follow the task index, not completion.
#include "core/parallel_sweep.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/attack_model.hpp"
#include "core/campaign.hpp"
#include "core/optimizer.hpp"
#include "core/placement.hpp"

namespace htpb::core {
namespace {

CampaignConfig small_config() {
  CampaignConfig cfg;
  cfg.system.width = 8;
  cfg.system.height = 8;
  cfg.system.epoch_cycles = 1000;
  cfg.mix = workload::standard_mixes().at(0);
  cfg.trojan.victim_scale = 0.10;
  cfg.trojan.attacker_boost = 8.0;
  cfg.warmup_epochs = 1;
  cfg.measure_epochs = 2;
  return cfg;
}

TEST(ParallelSweepRunner, MapPreservesIndexOrder) {
  const ParallelSweepRunner runner(4);
  const auto out =
      runner.map(64, [](std::size_t i) { return static_cast<int>(i) * 3; });
  ASSERT_EQ(out.size(), 64U);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) * 3);
  }
}

TEST(ParallelSweepRunner, StreamRngDependsOnlyOnSeedAndIndex) {
  Rng a = ParallelSweepRunner::stream_rng(42, 7);
  Rng b = ParallelSweepRunner::stream_rng(42, 7);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a(), b());
  Rng c = ParallelSweepRunner::stream_rng(42, 8);
  Rng d = ParallelSweepRunner::stream_rng(43, 7);
  EXPECT_NE(ParallelSweepRunner::stream_rng(42, 7)(), c());
  EXPECT_NE(ParallelSweepRunner::stream_rng(42, 7)(), d());
}

TEST(ParallelSweepRunner, MapStreamsIsThreadCountInvariant) {
  const auto draw = [](std::size_t, Rng& rng) { return rng(); };
  const auto serial = ParallelSweepRunner(1).map_streams(40, 99, draw);
  const auto parallel = ParallelSweepRunner(8).map_streams(40, 99, draw);
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelSweepRunner, ExceptionsPropagate) {
  const ParallelSweepRunner runner(4);
  EXPECT_THROW(runner.map(16,
                          [](std::size_t i) -> int {
                            if (i == 9) throw std::runtime_error("task 9");
                            return 0;
                          }),
               std::runtime_error);
}

// The acceptance bar of this subsystem: a placement sweep over full
// campaign evaluations returns bit-identical outcomes at 1 and N threads.
TEST(ParallelSweepRunner, PlacementSweepBitIdenticalAcrossThreadCounts) {
  const CampaignConfig cfg = small_config();
  const MeshGeometry geom(cfg.system.width, cfg.system.height);
  const AttackCampaign probe(cfg);

  Rng rng(2026);
  std::vector<Placement> placements;
  for (int m = 1; m <= 4; ++m) {
    auto cands = candidate_placements(geom, probe.gm_node(), m, 2, rng);
    placements.insert(placements.end(), cands.begin(), cands.end());
  }

  // The baseline and every placement in one fan-out, then reduced.
  const auto sweep = [&](int threads) {
    const auto runs = ParallelSweepRunner(threads).map(
        1 + placements.size(), [&](std::size_t i) {
          if (i == 0) return probe.simulate({});
          return probe.simulate(placements[i - 1].nodes);
        });
    std::vector<CampaignOutcome> outs;
    for (std::size_t i = 0; i < placements.size(); ++i) {
      outs.push_back(probe.reduce(runs[1 + i], runs[0], placements[i].nodes));
    }
    return outs;
  };
  const auto one = sweep(1);
  const auto many = sweep(4);

  ASSERT_EQ(one.size(), placements.size());
  ASSERT_EQ(one.size(), many.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].infection_measured, many[i].infection_measured) << i;
    EXPECT_EQ(one[i].infection_predicted, many[i].infection_predicted) << i;
    EXPECT_EQ(one[i].q_valid, many[i].q_valid) << i;
    EXPECT_EQ(one[i].q, many[i].q) << i;
    EXPECT_EQ(one[i].geometry.rho, many[i].geometry.rho) << i;
    EXPECT_EQ(one[i].geometry.eta, many[i].geometry.eta) << i;
    EXPECT_EQ(one[i].geometry.m, many[i].geometry.m) << i;
    ASSERT_EQ(one[i].apps.size(), many[i].apps.size()) << i;
    for (std::size_t a = 0; a < one[i].apps.size(); ++a) {
      EXPECT_EQ(one[i].apps[a].theta_baseline, many[i].apps[a].theta_baseline);
      EXPECT_EQ(one[i].apps[a].theta_attacked, many[i].apps[a].theta_attacked);
      EXPECT_EQ(one[i].apps[a].change, many[i].apps[a].change);
      EXPECT_EQ(one[i].apps[a].phi, many[i].apps[a].phi);
    }
  }
}

TEST(ParallelSweepRunner, OptimizerEnumerationThreadCountInvariant) {
  const MeshGeometry geom(8, 8);
  const NodeId gm = geom.id_of(geom.center());

  // A fitted model is not needed to exercise determinism: hand-build one
  // from synthetic samples so predict() is well-defined.
  std::vector<AttackSample> samples;
  Rng rng(5);
  for (int i = 0; i < 12; ++i) {
    AttackSample s;
    s.rho = rng.uniform(0.5, 4.0);
    s.eta = rng.uniform();
    s.m = 1 + static_cast<int>(rng.below(8));
    s.phi_victims = {0.4, 0.6};
    s.phi_attackers = {0.2};
    s.q = 1.0 + 0.3 * s.eta * s.m - 0.05 * s.rho;
    samples.push_back(std::move(s));
  }
  AttackEffectModel model;
  model.fit(samples);

  const PlacementOptimizer opt(geom, gm, &model, {0.4, 0.6}, {0.2});
  const auto one =
      opt.optimize_top_k(6, 10, 5, 77, ParallelSweepRunner(1));
  const auto many =
      opt.optimize_top_k(6, 10, 5, 77, ParallelSweepRunner(6));
  ASSERT_EQ(one.size(), many.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].predicted_q, many[i].predicted_q) << i;
    EXPECT_EQ(one[i].placement.nodes, many[i].placement.nodes) << i;
  }
}

}  // namespace
}  // namespace htpb::core
