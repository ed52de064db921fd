// Horizon::kLastWindow: a run that stops on the cycle after its last
// collection window closes must report, bit for bit, every value the
// manager fixes at allocation -- infection, victim grants, detection,
// response stats and the request trace -- and must refuse to stand in
// for a full run anywhere the cores' counters are read.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/geometry.hpp"
#include "common/rng.hpp"
#include "core/campaign.hpp"
#include "core/placement.hpp"
#include "power/request_trace.hpp"
#include "system/manycore_system.hpp"
#include "workload/application.hpp"

namespace htpb::core {
namespace {

/// A fig3/fig4 leg: uniform light workload, one warmup and two measured
/// epochs of 1500 cycles, with a passive detector so detection is set.
CampaignConfig infection_leg(int width, int height, system::GmPlacement gm) {
  CampaignConfig cfg;
  cfg.system.width = width;
  cfg.system.height = height;
  cfg.system.epoch_cycles = 1500;
  cfg.system.gm_placement = gm;
  cfg.warmup_epochs = 1;
  cfg.measure_epochs = 2;
  cfg.detector = power::DetectorConfig{};
  return cfg;
}

/// A defense-roc period-0 cell: mix-1, always-on Trojan, the first epoch
/// held back so the CONFIG_CMD broadcast lands before any POWER_REQ.
CampaignConfig roc_period0_leg() {
  CampaignConfig cfg;
  cfg.system.width = 8;
  cfg.system.height = 8;
  cfg.system.epoch_cycles = 1500;
  cfg.system.first_epoch_cycle = 600;
  cfg.mix = workload::standard_mixes().at(0);
  cfg.trojan.victim_scale = 0.10;
  cfg.trojan.attacker_boost = 8.0;
  cfg.trojan.active = true;
  cfg.warmup_epochs = 0;
  cfg.measure_epochs = 4;
  cfg.detector = power::DetectorConfig{};
  cfg.detector->kind = power::DetectorKind::kCohortMedian;
  return cfg;
}

/// Simulates `hts` under both horizons, traced, and checks that the short
/// result equals the full one on every allocation-time value and leaves
/// the end-of-epoch values unset.
void expect_parity(const AttackCampaign& campaign,
                   const std::vector<NodeId>& hts) {
  power::RequestTrace full_trace;
  power::RequestTrace short_trace;
  const RunResult full = campaign.simulate(hts, &full_trace);
  const RunResult cut =
      campaign.simulate(hts, &short_trace, Horizon::kLastWindow);

  EXPECT_EQ(full.horizon, Horizon::kFull);
  EXPECT_EQ(cut.horizon, Horizon::kLastWindow);
  EXPECT_EQ(cut.chip, full.chip);
  EXPECT_EQ(cut.infection, full.infection);
  EXPECT_EQ(cut.victim_grants, full.victim_grants);
  EXPECT_EQ(cut.mean_victim_grant_mw, full.mean_victim_grant_mw);
  EXPECT_EQ(cut.detection, full.detection);
  EXPECT_EQ(cut.response_stats, full.response_stats);
  EXPECT_FALSE(full_trace.empty());
  EXPECT_EQ(short_trace, full_trace);

  EXPECT_TRUE(cut.theta.empty());
  EXPECT_TRUE(cut.phi.empty());
  EXPECT_EQ(cut.gm_flits, 0U);
  EXPECT_EQ(cut.flood_packets, 0U);
  EXPECT_EQ(cut.trojan_totals, TrojanStats{});
  EXPECT_FALSE(cut.adaptation.has_value());
}

TEST(Horizon, InfectionLegsMatchTheFullRunAt64And512Cores) {
  for (const auto& [w, h] : {std::pair{8, 8}, std::pair{32, 16}}) {
    for (const system::GmPlacement gm :
         {system::GmPlacement::kCenter, system::GmPlacement::kCorner}) {
      const AttackCampaign campaign(infection_leg(w, h, gm));
      const MeshGeometry geom(w, h);
      const int hts = w * h / 16;
      for (const std::uint64_t seed : {11U, 12U}) {
        SCOPED_TRACE(testing::Message() << w * h << " cores, gm "
                                        << campaign.gm_node() << ", seed "
                                        << seed);
        Rng rng(seed);
        expect_parity(campaign, random_placement(geom, hts, rng,
                                                 campaign.gm_node()));
      }
    }
  }
}

TEST(Horizon, OffsetPeriodZeroRocLegMatchesTheFullRun) {
  const AttackCampaign campaign(roc_period0_leg());
  const MeshGeometry geom(8, 8);
  expect_parity(campaign,
                clustered_placement(geom, 8, geom.coord_of(campaign.gm_node()),
                                    campaign.gm_node()));
}

TEST(Horizon, QuarantineResponseStatsMatchTheFullRun) {
  CampaignConfig cfg = roc_period0_leg();
  cfg.response = power::ResponseConfig{};
  cfg.response->trigger = power::ResponseTrigger::kLow;
  const AttackCampaign campaign(cfg);
  const MeshGeometry geom(8, 8);
  const auto hts = clustered_placement(
      geom, 8, geom.coord_of(campaign.gm_node()), campaign.gm_node());
  const RunResult full = campaign.simulate(hts);
  ASSERT_TRUE(full.response_stats.has_value());
  EXPECT_FALSE(full.response_stats->sanctioned_cores.empty());
  expect_parity(campaign, hts);
}

TEST(Horizon, ShortRunStopsTheCycleAfterTheLastAllocate) {
  // 8x8: a 392-cycle collect window. Epochs open at f + k x 1500.
  const auto stop_after = [](Cycle first_epoch_cycle, int epochs) {
    system::SystemConfig cfg;
    cfg.width = 8;
    cfg.height = 8;
    cfg.epoch_cycles = 1500;
    cfg.first_epoch_cycle = first_epoch_cycle;
    std::vector<workload::Application> apps = workload::instantiate_mix(
        workload::standard_mixes().at(0), 16);
    workload::map_threads_round_robin(apps, 64);
    system::ManyCoreSystem sys(cfg, apps);
    sys.run_epochs(epochs, system::Horizon::kLastWindow);
    return sys.engine().now();
  };
  // The third epoch's window closes at 600 + 3000 + 392 = 3992.
  EXPECT_EQ(stop_after(600, 3), 3993U);
  // The third epoch opens at 4400 and would close at 4792, past the
  // span's 4500: the last window the full run closes is the second's.
  EXPECT_EQ(stop_after(1400, 3), 1400U + 1500U + 392U + 1U);
  // No window closes inside the span: the run is the full span.
  EXPECT_EQ(stop_after(1400, 1), 1500U);
}

TEST(Horizon, ShortResultsAreRejectedWhereTheCoresAreRead) {
  CampaignConfig cfg = roc_period0_leg();
  cfg.detector.reset();
  const AttackCampaign campaign(cfg);
  const MeshGeometry geom(8, 8);
  const auto hts = clustered_placement(
      geom, 8, geom.coord_of(campaign.gm_node()), campaign.gm_node());
  const RunResult base = campaign.simulate({});
  const RunResult base_short =
      campaign.simulate({}, nullptr, Horizon::kLastWindow);
  const RunResult attacked = campaign.simulate(hts);
  const RunResult attacked_short =
      campaign.simulate(hts, nullptr, Horizon::kLastWindow);

  EXPECT_NO_THROW((void)campaign.reduce(attacked, base, hts));
  EXPECT_THROW((void)campaign.reduce(attacked_short, base, hts),
               std::invalid_argument);
  EXPECT_THROW((void)campaign.reduce(attacked, base_short, hts),
               std::invalid_argument);
  EXPECT_THROW((void)campaign.derive_unsanctioned(attacked_short),
               std::invalid_argument);

  // A migrate response rebuilds the chip at an epoch boundary, so it has
  // no short horizon -- not even for the baseline.
  CampaignConfig migrate = roc_period0_leg();
  migrate.response = power::ResponseConfig{};
  migrate.response->kind = power::ResponseKind::kMigrate;
  const AttackCampaign migrating(migrate);
  EXPECT_THROW((void)migrating.simulate(hts, nullptr, Horizon::kLastWindow),
               std::invalid_argument);
  EXPECT_THROW((void)migrating.simulate({}, nullptr, Horizon::kLastWindow),
               std::invalid_argument);
}

}  // namespace
}  // namespace htpb::core
