// End-to-end attack experiments: the paper's core claims on a 64-node chip.
#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <stdexcept>
#include <string>

#include "core/infection.hpp"
#include "core/placement.hpp"
#include "workload/application.hpp"

namespace htpb::core {
namespace {

CampaignConfig fast_config(int mix_index = 0) {
  CampaignConfig cfg;
  cfg.system.width = 8;
  cfg.system.height = 8;
  cfg.system.epoch_cycles = 1500;
  cfg.mix = workload::standard_mixes().at(static_cast<std::size_t>(mix_index));
  cfg.trojan.victim_scale = 0.10;
  cfg.trojan.attacker_boost = 8.0;
  cfg.warmup_epochs = 2;
  cfg.measure_epochs = 4;
  return cfg;
}

/// The attacked run of `hts` reduced against the campaign's own baseline.
CampaignOutcome run(const AttackCampaign& campaign,
                    std::span<const NodeId> hts) {
  return campaign.reduce(campaign.simulate(hts), campaign.simulate({}), hts);
}

TEST(AttackCampaign, NoTrojansMeansNoEffect) {
  AttackCampaign campaign(fast_config());
  const auto out = run(campaign, {});
  EXPECT_DOUBLE_EQ(out.infection_measured, 0.0);
  ASSERT_TRUE(out.q_valid);
  // Identical seed and no tampering: attacked run == baseline run exactly.
  EXPECT_NEAR(out.q, 1.0, 1e-9);
  for (const auto& app : out.apps) EXPECT_NEAR(app.change, 1.0, 1e-9);
}

TEST(AttackCampaign, TrojansNearManagerFlipTheAllocation) {
  AttackCampaign campaign(fast_config());
  const MeshGeometry geom(8, 8);
  const auto hts = clustered_placement(
      geom, 8, geom.coord_of(campaign.gm_node()), campaign.gm_node());
  const auto out = run(campaign, hts);

  EXPECT_GT(out.infection_measured, 0.9);
  EXPECT_NEAR(out.infection_measured, out.infection_predicted, 0.1);
  ASSERT_TRUE(out.q_valid);
  EXPECT_GT(out.q, 1.5);
  for (const auto& app : out.apps) {
    if (app.attacker) {
      EXPECT_GE(app.change, 0.98) << app.name;
    } else {
      EXPECT_LT(app.change, 0.7) << app.name;
    }
  }
  EXPECT_GT(out.trojan_totals.victim_requests_modified, 0U);
  EXPECT_GT(out.trojan_totals.attacker_requests_boosted, 0U);
  EXPECT_EQ(out.geometry.m, 8);
}

TEST(AttackCampaign, QGrowsWithInfectionRate) {
  AttackCampaign campaign(fast_config());
  const MeshGeometry geom(8, 8);
  const InfectionAnalyzer analyzer(geom, campaign.gm_node());
  Rng rng(3);
  double prev_q = 0.0;
  double prev_infection = -1.0;
  for (const double target : {0.25, 0.55, 0.95}) {
    const auto hts = analyzer.placement_for_target(target, 32, rng);
    const auto out = run(campaign, hts);
    EXPECT_GT(out.infection_measured, prev_infection);
    EXPECT_GT(out.q, prev_q * 0.98) << "Q not (weakly) increasing";
    prev_q = out.q;
    prev_infection = out.infection_measured;
  }
  EXPECT_GT(prev_q, 1.5);
}

TEST(AttackCampaign, DeactivatedTrojansAreHarmless) {
  CampaignConfig cfg = fast_config();
  cfg.trojan.active = false;  // broadcast carries the OFF signal
  AttackCampaign campaign(cfg);
  const MeshGeometry geom(8, 8);
  const auto hts = clustered_placement(
      geom, 8, geom.coord_of(campaign.gm_node()), campaign.gm_node());
  const auto out = run(campaign, hts);
  EXPECT_DOUBLE_EQ(out.infection_measured, 0.0);
  // The configuration broadcast itself perturbs packet interleaving a
  // little, so the run is not bit-identical to the baseline -- but a
  // dormant Trojan must have no systematic effect.
  EXPECT_NEAR(out.q, 1.0, 0.05);
  EXPECT_EQ(out.trojan_totals.victim_requests_modified, 0U);
}

TEST(AttackCampaign, InfectionOnlyModeCoversFigThreeSetup) {
  CampaignConfig cfg;
  cfg.system.width = 8;
  cfg.system.height = 8;
  cfg.system.epoch_cycles = 1500;
  cfg.mix = std::nullopt;  // uniform single-app workload
  cfg.warmup_epochs = 1;
  cfg.measure_epochs = 3;
  AttackCampaign campaign(cfg);
  const MeshGeometry geom(8, 8);
  const auto near_gm = clustered_placement(
      geom, 6, geom.coord_of(campaign.gm_node()), campaign.gm_node());
  const double infected = campaign.simulate(near_gm).infection;
  EXPECT_GT(infected, 0.5);
  const double clean = campaign.simulate({}).infection;
  EXPECT_DOUBLE_EQ(clean, 0.0);
}

TEST(AttackCampaign, CornerManagerSeesHigherInfectionThanCenter) {
  // Fig. 3's second claim, on the simulator rather than the analyzer.
  Rng rng(7);
  const MeshGeometry geom(8, 8);
  auto run_with_gm = [&](system::GmPlacement place) {
    CampaignConfig cfg;
    cfg.system.width = 8;
    cfg.system.height = 8;
    cfg.system.epoch_cycles = 1500;
    cfg.system.gm_placement = place;
    cfg.mix = std::nullopt;
    cfg.warmup_epochs = 1;
    cfg.measure_epochs = 3;
    AttackCampaign campaign(cfg);
    double sum = 0.0;
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      Rng r(seed + 100);
      const auto hts = random_placement(geom, 12, r, campaign.gm_node());
      sum += campaign.simulate(hts).infection;
    }
    return sum / 3.0;
  };
  const double center = run_with_gm(system::GmPlacement::kCenter);
  const double corner = run_with_gm(system::GmPlacement::kCorner);
  EXPECT_GT(corner, center);
}

TEST(AttackCampaign, BaselinePhiExposesSensitivitySpread) {
  AttackCampaign campaign(fast_config());
  // Every outcome carries the baseline run's per-app Phi.
  const CampaignOutcome out = run(campaign, {});
  ASSERT_EQ(out.apps.size(), 4U);
  // mix-1: blackscholes (victim index 2) must dominate canneal (index 1).
  EXPECT_GT(out.apps[2].phi, out.apps[1].phi);
}

TEST(AttackCampaign, MoreAppsThanCoresRejected) {
  CampaignConfig cfg = fast_config();
  cfg.system.width = 2;
  cfg.system.height = 1;
  EXPECT_THROW(AttackCampaign{cfg}, std::invalid_argument);
}

/// The std::invalid_argument message `fn` throws ("" when it does not).
template <typename Fn>
std::string rejection(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

// The constructor rejects an illegal attack side: a response needs a
// detector to act on, adaptation and toggle are rival controllers, and a
// flooding campaign has no false-data Trojan to detect or respond to.
// It also holds a C++ caller to every rule a scenario spec is held to,
// each error naming the member path.
TEST(AttackCampaign, ConstructorRejectsIllegalAttackSide) {
  const struct {
    const char* member;
    void (*mutate)(CampaignConfig&);
  } illegal[] = {
      {"system.epoch_cycles",
       [](CampaignConfig& c) {
         c.system.epoch_cycles = c.system.resolved_collect_window();
       }},
      {"system.budget_fraction",
       [](CampaignConfig& c) { c.system.budget_fraction = 1.5; }},
      {"threads_per_app", [](CampaignConfig& c) { c.threads_per_app = -1; }},
      {"warmup_epochs", [](CampaignConfig& c) { c.warmup_epochs = -1; }},
      {"measure_epochs", [](CampaignConfig& c) { c.measure_epochs = 0; }},
      {"trojan.victim_scale",
       [](CampaignConfig& c) { c.trojan.victim_scale = 0.001; }},
      {"trojan.attacker_boost",
       [](CampaignConfig& c) { c.trojan.attacker_boost = 1000.0; }},
      {"detector.confirm_epochs",
       [](CampaignConfig& c) {
         c.detector = power::DetectorConfig{};
         c.detector->confirm_epochs = 0;
       }},
  };
  for (const auto& bad : illegal) {
    CampaignConfig cfg = fast_config();
    bad.mutate(cfg);
    const std::string what = rejection([&] { AttackCampaign{cfg}; });
    EXPECT_NE(what.find(bad.member), std::string::npos)
        << bad.member << ": " << what;
  }

  CampaignConfig headless = fast_config();
  headless.response = power::ResponseConfig{};
  const std::string no_detector =
      rejection([&] { AttackCampaign{headless}; });
  EXPECT_NE(no_detector.find("requires a detector"), std::string::npos)
      << no_detector;

  CampaignConfig rivals = fast_config();
  rivals.trojan.adapt.enabled = true;
  rivals.toggle_period_epochs = 2;
  const std::string rival = rejection([&] { AttackCampaign{rivals}; });
  EXPECT_NE(rival.find("rival"), std::string::npos) << rival;

  CampaignConfig flood = fast_config();
  flood.flooding = FloodingConfig{};
  flood.detector = power::DetectorConfig{};
  const std::string watched = rejection([&] { AttackCampaign{flood}; });
  EXPECT_NE(watched.find("flooding"), std::string::npos) << watched;
  flood.response = power::ResponseConfig{};
  EXPECT_NE(rejection([&] { AttackCampaign{flood}; }), "");

  // Each rule alone is legal.
  CampaignConfig responsive = headless;
  responsive.detector = power::DetectorConfig{};
  EXPECT_EQ(rejection([&] { AttackCampaign{responsive}; }), "");
  rivals.toggle_period_epochs = 0;
  EXPECT_EQ(rejection([&] { AttackCampaign{rivals}; }), "");
  flood.detector.reset();
  flood.response.reset();
  EXPECT_EQ(rejection([&] { AttackCampaign{flood}; }), "");
}

// A baseline is a value any campaign on the same chip side may reduce
// against, whatever its attack side; reduce() rejects one simulated on a
// different system or epoch window.
TEST(AttackCampaign, ReduceRejectsABaselineFromAnotherChipSide) {
  const CampaignConfig cfg = fast_config();
  const AttackCampaign campaign(cfg);
  const MeshGeometry geom(8, 8);
  const auto hts = clustered_placement(
      geom, 4, geom.coord_of(campaign.gm_node()), campaign.gm_node());
  const RunResult attacked = campaign.simulate(hts);
  const CampaignOutcome own = run(campaign, hts);

  CampaignConfig other_attack = cfg;
  other_attack.trojan.victim_scale = 0.5;
  other_attack.toggle_period_epochs = 2;
  other_attack.detector = power::DetectorConfig{};
  const RunResult shared = AttackCampaign(other_attack).simulate({});
  EXPECT_EQ(campaign.reduce(attacked, shared, hts).q, own.q);

  CampaignConfig guarded = cfg;
  guarded.system.guard = power::DetectorConfig{};
  const std::string system = rejection([&] {
    (void)campaign.reduce(attacked, AttackCampaign(guarded).simulate({}), hts);
  });
  EXPECT_NE(system.find("different chip side"), std::string::npos) << system;

  CampaignConfig shorter = cfg;
  shorter.measure_epochs = cfg.measure_epochs - 1;
  EXPECT_NE(rejection([&] {
              (void)campaign.reduce(attacked,
                                    AttackCampaign(shorter).simulate({}), hts);
            }),
            "");
  CampaignConfig longer_warmup = cfg;
  longer_warmup.warmup_epochs = cfg.warmup_epochs + 1;
  EXPECT_NE(rejection([&] {
              (void)campaign.reduce(
                  attacked, AttackCampaign(longer_warmup).simulate({}), hts);
            }),
            "");
}

// A response arm whose trigger never fires on its response-free twin's
// detection report never sanctions, so it follows the twin bit for bit:
// derive_unsanctioned() returns exactly what simulate() would, and
// declines only for arms that really act.
TEST(AttackCampaign, UnsanctionedResponseArmIsItsResponseFreeTwin) {
  CampaignConfig base = fast_config();
  base.measure_epochs = 6;
  base.trojan.active = false;
  base.detector = power::DetectorConfig{};
  const AttackCampaign probe(base);
  const MeshGeometry geom(8, 8);
  const auto hts = clustered_placement(
      geom, 8, geom.coord_of(probe.gm_node()), probe.gm_node());

  int derived = 0;
  int simulated = 0;
  for (const bool adaptive : {false, true}) {
    CampaignConfig free_cfg = base;
    free_cfg.trojan.adapt.enabled = adaptive;
    free_cfg.trojan.active = adaptive;
    free_cfg.toggle_period_epochs = adaptive ? 0 : 2;
    const RunResult twin = AttackCampaign(free_cfg).simulate(hts);
    for (const auto kind :
         {power::ResponseKind::kQuarantine, power::ResponseKind::kThrottle,
          power::ResponseKind::kMigrate}) {
      for (const auto trigger :
           {power::ResponseTrigger::kHigh, power::ResponseTrigger::kLow,
            power::ResponseTrigger::kBoth}) {
        CampaignConfig cfg = free_cfg;
        cfg.response = power::ResponseConfig{};
        cfg.response->kind = kind;
        cfg.response->trigger = trigger;
        const AttackCampaign arm(cfg);
        const std::string label = std::string(power::to_string(kind)) + "/" +
                                  power::to_string(trigger) +
                                  (adaptive ? " adaptive" : " static");
        const std::optional<RunResult> from_twin =
            arm.derive_unsanctioned(twin);
        const RunResult own = arm.simulate(hts);
        if (from_twin.has_value()) {
          ++derived;
          EXPECT_TRUE(*from_twin == own) << label;
          EXPECT_GT(own.gm_flits, 0U) << label;
          EXPECT_EQ(from_twin->gm_flits, own.gm_flits) << label;
        } else {
          ++simulated;
          ASSERT_TRUE(own.response_stats.has_value()) << label;
          EXPECT_GE(own.response_stats->first_sanction_epoch, 0) << label;
        }
      }
    }
  }
  // The grid exercises both paths.
  EXPECT_GT(derived, 0);
  EXPECT_GT(simulated, 0);

  // An empty placement builds no detector and no engine: the arm is its
  // twin with response_stats left unset.
  CampaignConfig responsive = base;
  responsive.response = power::ResponseConfig{};
  const AttackCampaign arm(responsive);
  const RunResult clean = probe.simulate({});
  const std::optional<RunResult> from_clean = arm.derive_unsanctioned(clean);
  ASSERT_TRUE(from_clean.has_value());
  EXPECT_FALSE(from_clean->response_stats.has_value());
  EXPECT_TRUE(*from_clean == arm.simulate({}));

  // A twin from another chip side is no twin.
  CampaignConfig shorter = base;
  shorter.measure_epochs = base.measure_epochs - 1;
  EXPECT_THROW(
      (void)arm.derive_unsanctioned(AttackCampaign(shorter).simulate({})),
      std::invalid_argument);
}

}  // namespace
}  // namespace htpb::core
