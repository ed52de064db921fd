// End-to-end defense evaluation: detector catches the attack at the
// manager; the guarded budgeter blunts it; duty-cycled activation trades
// damage for stealth; the flooding baseline is loud where the false-data
// attack is silent.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/campaign.hpp"
#include "core/flooding.hpp"
#include "core/placement.hpp"
#include "power/defense.hpp"
#include "workload/application.hpp"

namespace htpb::core {
namespace {

CampaignConfig base_config() {
  CampaignConfig cfg;
  cfg.system.width = 8;
  cfg.system.height = 8;
  cfg.system.epoch_cycles = 1500;
  cfg.mix = workload::standard_mixes()[0];
  cfg.trojan.victim_scale = 0.10;
  cfg.trojan.attacker_boost = 8.0;
  cfg.warmup_epochs = 2;
  cfg.measure_epochs = 4;
  return cfg;
}

std::vector<NodeId> gm_cluster(const AttackCampaign& campaign, int m) {
  const MeshGeometry geom(8, 8);
  return clustered_placement(geom, m, geom.coord_of(campaign.gm_node()),
                             campaign.gm_node());
}

/// Attack `m` GM-adjacent nodes and reduce against the campaign's baseline.
CampaignOutcome run_gm_cluster(const AttackCampaign& campaign, int m) {
  const auto hts = gm_cluster(campaign, m);
  return campaign.reduce(campaign.simulate(hts), campaign.simulate({}), hts);
}

TEST(DefenseIntegration, DetectorFlagsVictimsAndAccomplices) {
  CampaignConfig cfg = base_config();
  // The Trojans are active from power-on, so a detector would never see
  // honest traffic from infected paths. Use a mid-run activation instead:
  // warmup runs with the Trojan OFF via toggle (first toggle flips to ON).
  cfg.detector = power::DetectorConfig{};
  cfg.trojan.active = false;       // dormant at power-on
  cfg.toggle_period_epochs = 3;    // flips ON after 3 epochs
  cfg.measure_epochs = 6;
  AttackCampaign campaign(cfg);
  const auto out = campaign.simulate(gm_cluster(campaign, 8));
  ASSERT_TRUE(out.detection.has_value());
  // Victims' requests collapsed 10x after the flip: flagged.
  EXPECT_GT(out.detection->flagged_low.size(), 10U);
  // Attacker cores' requests jumped 8x: flagged too.
  EXPECT_GT(out.detection->flagged_high.size(), 10U);
  // The flip lands after epoch 3; confirmation takes confirm_epochs more.
  EXPECT_GE(out.detection->first_flag_epoch, 3);
  EXPECT_GT(out.detection->epochs_observed, 0U);
}

TEST(DefenseIntegration, DetectorQuietWithoutAttack) {
  CampaignConfig cfg = base_config();
  cfg.detector = power::DetectorConfig{};
  // One dormant Trojan so the detector is attached (detector is attached
  // on attacked runs only), but the OFF signal keeps it harmless.
  cfg.trojan.active = false;
  AttackCampaign clean(cfg);
  const auto out = clean.simulate(gm_cluster(clean, 2));
  ASSERT_TRUE(out.detection.has_value());
  EXPECT_TRUE(out.detection->flagged_low.empty())
      << "false positives on clean traffic";
  EXPECT_TRUE(out.detection->flagged_high.empty());
  EXPECT_EQ(out.detection->first_flag_epoch, -1);
}

TEST(DefenseIntegration, NoDetectorMeansNoReport) {
  CampaignConfig cfg = base_config();
  AttackCampaign campaign(cfg);
  const auto out = campaign.simulate(gm_cluster(campaign, 4));
  EXPECT_FALSE(out.detection.has_value());
}

TEST(DefenseIntegration, GuardedBudgeterBluntsTheAttack) {
  CampaignConfig cfg = base_config();
  AttackCampaign undefended(cfg);
  const auto attacked = run_gm_cluster(undefended, 8);

  CampaignConfig guarded_cfg = base_config();
  guarded_cfg.system.guard = power::DetectorConfig{};
  AttackCampaign defended(guarded_cfg);
  const auto mitigated = run_gm_cluster(defended, 8);

  ASSERT_TRUE(attacked.q_valid);
  ASSERT_TRUE(mitigated.q_valid);
  EXPECT_LT(mitigated.q, attacked.q * 0.75)
      << "mitigation should remove a large share of the attack effect";
  // Victims keep substantially more of their performance under the guard.
  double worst_plain = 1.0;
  double worst_guarded = 1.0;
  for (const auto& app : attacked.apps) {
    if (!app.attacker) worst_plain = std::min(worst_plain, app.change);
  }
  for (const auto& app : mitigated.apps) {
    if (!app.attacker) worst_guarded = std::min(worst_guarded, app.change);
  }
  EXPECT_GT(worst_guarded, worst_plain + 0.1);
}

TEST(DefenseIntegration, DutyCycledAttackScalesWithDuty) {
  // ON/OFF alternation every 2 epochs => roughly half the epochs attack.
  CampaignConfig cfg = base_config();
  cfg.toggle_period_epochs = 2;
  cfg.warmup_epochs = 0;
  cfg.measure_epochs = 8;
  AttackCampaign duty(cfg);
  const auto duty_out = run_gm_cluster(duty, 8);

  CampaignConfig full_cfg = base_config();
  full_cfg.warmup_epochs = 0;
  full_cfg.measure_epochs = 8;
  AttackCampaign full(full_cfg);
  const auto full_out = run_gm_cluster(full, 8);

  EXPECT_LT(duty_out.infection_measured, full_out.infection_measured * 0.8);
  EXPECT_GT(duty_out.infection_measured, 0.2);
  EXPECT_LT(duty_out.q, full_out.q);
  EXPECT_GT(duty_out.q, 1.0);
}

TEST(DefenseIntegration, FloodingBaselineIsLoud) {
  // The flooding Trojan damages the victim too -- but announces itself
  // with a massive traffic anomaly, unlike the false-data attack.
  CampaignConfig cfg = base_config();
  cfg.flooding = FloodingConfig{0.15, 99};
  const AttackCampaign campaign(cfg);
  const RunResult clean = campaign.simulate({});
  // Flooded run: 4 flooders aimed at the manager, and no false-data
  // Trojan anywhere.
  const std::vector<NodeId> sources = {0, 7, 56, 63};
  const RunResult flooded = campaign.simulate(sources);

  EXPECT_EQ(clean.flood_packets, 0U);
  EXPECT_GT(flooded.flood_packets, 1000U);
  EXPECT_EQ(flooded.trojan_totals.config_packets_seen, 0U);
  // The hotspot anomaly at the victim's router is unmistakable -- the
  // utilization counter a flooding detector would watch. (Chip-wide flit
  // totals barely move: the flood throttles legitimate traffic.)
  EXPECT_GT(static_cast<double>(flooded.gm_flits),
            1.5 * static_cast<double>(clean.gm_flits));
}

TEST(DefenseIntegration, FloodingInjectsAtItsRate) {
  sim::Engine engine;
  MeshGeometry geom(4, 4);
  noc::NocConfig noc_cfg;
  noc::MeshNetwork net(engine, geom, noc_cfg);
  for (NodeId n = 0; n < 16; ++n) net.set_handler(n, [](const noc::Packet&) {});
  FloodingAttacker flooder(&net, 0, 15, 0.5, 7);
  engine.add_tickable(&flooder);
  engine.run_cycles(100);
  EXPECT_NEAR(static_cast<double>(flooder.packets_injected()), 50.0, 2.0);
}

}  // namespace
}  // namespace htpb::core
