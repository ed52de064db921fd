// Integration tests of the full chip: budgeting epochs run end to end,
// grants respect the chip budget, DVFS reacts, throughput is measured.
#include "system/manycore_system.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>

#include "common/json.hpp"
#include "workload/application.hpp"

namespace htpb::system {
namespace {

std::vector<workload::Application> small_apps(int nodes, int mix_index = 0) {
  auto apps = workload::instantiate_mix(
      workload::standard_mixes().at(static_cast<std::size_t>(mix_index)),
      nodes / 4);
  workload::map_threads_round_robin(apps, nodes);
  return apps;
}

SystemConfig small_cfg() {
  SystemConfig cfg;
  cfg.width = 8;
  cfg.height = 8;
  cfg.epoch_cycles = 1500;
  return cfg;
}

TEST(ManyCoreSystem, BuildsAndResolvesGmPlacement) {
  ManyCoreSystem center(small_cfg(), small_apps(64));
  EXPECT_EQ(center.gm_node(),
            center.geometry().id_of(center.geometry().center()));

  SystemConfig cfg = small_cfg();
  cfg.gm_placement = GmPlacement::kCorner;
  ManyCoreSystem corner(cfg, small_apps(64));
  EXPECT_EQ(corner.gm_node(), 0U);

  cfg.gm_node = 17;
  ManyCoreSystem pinned(cfg, small_apps(64));
  EXPECT_EQ(pinned.gm_node(), 17U);
}

TEST(ManyCoreSystem, RejectsUnmappedApps) {
  auto apps = workload::instantiate_mix(workload::standard_mixes()[0], 16);
  EXPECT_THROW(ManyCoreSystem(small_cfg(), apps), std::invalid_argument);
}

TEST(ManyCoreSystem, RejectsDoubleMappedCore) {
  auto apps = small_apps(64);
  apps[1].cores = apps[0].cores;  // collide
  EXPECT_THROW(ManyCoreSystem(small_cfg(), apps), std::invalid_argument);
}

TEST(ManyCoreSystem, EveryCoreMappedEveryTileHasL2) {
  ManyCoreSystem sys(small_cfg(), small_apps(64));
  int cores = 0;
  for (NodeId n = 0; n < 64; ++n) {
    if (sys.core(n) != nullptr) ++cores;
    EXPECT_NE(sys.l2(n), nullptr);
  }
  EXPECT_EQ(cores, 64);
}

TEST(ManyCoreSystem, BudgetIsScarceButCoversFloors) {
  ManyCoreSystem sys(small_cfg(), small_apps(64));
  const auto max_demand =
      64ULL * sys.config().power_model.milliwatts_at(
                  sys.config().freqs, sys.config().freqs.max_level());
  EXPECT_LT(sys.total_budget_mw(), max_demand);
  EXPECT_GE(sys.total_budget_mw(), 64ULL * sys.floor_mw());
}

TEST(ManyCoreSystem, EpochsProduceGrantsWithinBudget) {
  ManyCoreSystem sys(small_cfg(), small_apps(64));
  sys.run_epochs(3);
  const auto& history = sys.gm().history();
  ASSERT_GE(history.size(), 2U);
  for (const auto& rec : history) {
    EXPECT_GT(rec.requests_received, 0U);
    EXPECT_LE(rec.granted_mw, rec.budget_mw);
  }
  // All 64 cores' requests arrive within the collection window.
  EXPECT_EQ(history[1].requests_received, 64U);
}

TEST(ManyCoreSystem, DvfsLevelsReactToGrants) {
  ManyCoreSystem sys(small_cfg(), small_apps(64));
  sys.run_epochs(4);
  // Under a 50% budget not everyone can sit at the top level; under the
  // floor guarantee nobody is parked below level 0 with zero duty.
  int top = 0;
  for (NodeId n = 0; n < 64; ++n) {
    const auto* core = sys.core(n);
    ASSERT_NE(core, nullptr);
    if (core->level() == sys.config().freqs.max_level()) ++top;
    EXPECT_GT(core->duty(), 0.0);
  }
  EXPECT_LT(top, 64);
}

TEST(ManyCoreSystem, ThroughputPositiveAndMeasured) {
  ManyCoreSystem sys(small_cfg(), small_apps(64));
  sys.run_epochs(2);
  sys.reset_measurement();
  sys.run_epochs(3);
  for (const auto& app : sys.apps()) {
    EXPECT_GT(sys.app_throughput(app.id), 0.0) << app.profile.name;
  }
}

TEST(ManyCoreSystem, ComputeBoundAppsMoreSensitive) {
  // Def. 4/5: blackscholes (compute-bound) must report a higher Phi than
  // canneal (memory-bound) -- the spread the attack model depends on.
  ManyCoreSystem sys(small_cfg(), small_apps(64, /*mix*/ 0));
  sys.run_epochs(3);
  double phi_blackscholes = -1.0;
  double phi_canneal = -1.0;
  for (const auto& app : sys.apps()) {
    if (app.profile.name == "blackscholes") {
      phi_blackscholes = sys.app_sensitivity(app.id);
    }
    if (app.profile.name == "canneal") {
      phi_canneal = sys.app_sensitivity(app.id);
    }
  }
  ASSERT_GE(phi_blackscholes, 0.0);
  ASSERT_GE(phi_canneal, 0.0);
  EXPECT_GT(phi_blackscholes, 2.0 * phi_canneal);
}

TEST(ManyCoreSystem, InfectionRateZeroWithoutTrojans) {
  ManyCoreSystem sys(small_cfg(), small_apps(64));
  sys.run_epochs(2);
  sys.reset_measurement();
  sys.run_epochs(2);
  EXPECT_DOUBLE_EQ(sys.measured_infection_rate(), 0.0);
}

TEST(ManyCoreSystem, MemoryTrafficFlowsThroughNoc) {
  ManyCoreSystem sys(small_cfg(), small_apps(64));
  sys.run_epochs(3);
  EXPECT_GT(sys.network().stats().latency_mem.count(), 0U);
  EXPECT_GT(sys.network().total_router_stats().flits_forwarded, 0U);
}

TEST(ManyCoreSystem, ValidateAcceptsArbitraryShapes) {
  SystemConfig wide;
  wide.width = 10;
  wide.height = 3;
  EXPECT_NO_THROW(wide.validate());
  EXPECT_EQ(wide.node_count(), 30);

  for (const auto& [w, h] : {std::pair{1, 8}, {8, 0}, {-4, 4}}) {
    SystemConfig bad;
    bad.width = w;
    bad.height = h;
    EXPECT_THROW(bad.validate(), std::invalid_argument) << w << "x" << h;
  }
}

TEST(ManyCoreSystem, ValidateCapsNodeCountAndEpochLength) {
  SystemConfig cfg;
  cfg.width = 64;
  cfg.height = 64;  // exactly kMaxNodes
  EXPECT_NO_THROW(cfg.validate());
  cfg.height = 65;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  // 1.6e9 nodes with an epoch past its 960200-cycle collect window: only
  // validated, never built.
  cfg.width = 40000;
  cfg.height = 40000;
  cfg.epoch_cycles = SystemConfig::kMaxEpochCycles;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = SystemConfig{};
  cfg.epoch_cycles = SystemConfig::kMaxEpochCycles;
  EXPECT_NO_THROW(cfg.validate());
  cfg.epoch_cycles += 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

// The epoch and budget rules hold for every consumer of a chip config,
// not only for scenario specs: the chip itself refuses to build.
TEST(ManyCoreSystem, ValidateRejectsAnEpochInsideItsCollectWindowOrABadBudget) {
  SystemConfig cfg = small_cfg();
  cfg.epoch_cycles = cfg.resolved_collect_window();
  EXPECT_THROW(ManyCoreSystem(cfg, small_apps(64)), std::invalid_argument);
  cfg.epoch_cycles += 1;
  EXPECT_NO_THROW(cfg.validate());
  for (const double fraction : {0.0, -1.0, 1.5}) {
    cfg.budget_fraction = fraction;
    EXPECT_THROW(cfg.validate(), std::invalid_argument) << fraction;
  }
  cfg.budget_fraction = 1.0;
  EXPECT_NO_THROW(cfg.validate());
  cfg.guard = power::DetectorConfig{};
  cfg.guard->confirm_epochs = 0;
  try {
    cfg.validate();
    ADD_FAILURE() << "guard.confirm_epochs 0 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("guard.confirm_epochs"),
              std::string::npos)
        << e.what();
  }
}

TEST(ManyCoreSystem, ValidateCatchesGmOutsideMesh) {
  SystemConfig cfg;
  cfg.width = 6;
  cfg.height = 4;
  cfg.gm_node = 23;  // last node: fine
  EXPECT_NO_THROW(cfg.validate());
  cfg.gm_node = 24;  // one past the end
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ManyCoreSystem, NonSquareMeshRunsEpochsWithCenteredGm) {
  // A 12x4 mesh: GM placement presets and the collect window must derive
  // from width/height, not an assumed square side.
  SystemConfig cfg;
  cfg.width = 12;
  cfg.height = 4;
  cfg.epoch_cycles = 1500;
  auto apps = workload::instantiate_mix(workload::standard_mixes()[0], 12);
  workload::map_threads_round_robin(apps, cfg.node_count());
  ManyCoreSystem sys(cfg, apps);
  EXPECT_EQ(sys.gm_node(), sys.geometry().id_of(Coord{6, 2}));
  sys.run_epochs(3);
  const auto& history = sys.gm().history();
  ASSERT_GE(history.size(), 2U);
  EXPECT_EQ(history[1].requests_received, 48U);
  EXPECT_LE(history[1].granted_mw, history[1].budget_mw);
}

TEST(ManyCoreSystem, CollectWindowAutoScalesWithDiameter) {
  SystemConfig small;
  small.width = 8;
  small.height = 8;
  SystemConfig large;
  large.width = 32;
  large.height = 16;
  EXPECT_GT(large.resolved_collect_window(),
            small.resolved_collect_window());
}

// Snapshot layer: run-to-cycle-N, save, restore into a FRESH system of
// the same construction, run-to-end -- bit-identical to the
// uninterrupted run, throughput and snapshot dump included.
TEST(ManyCoreSystem, SaveRestoreIntoFreshSystemBitIdentical) {
  const SystemConfig cfg = small_cfg();
  const auto apps = small_apps(64);

  ManyCoreSystem straight(cfg, apps);
  straight.run_epochs(5);

  ManyCoreSystem first(cfg, apps);
  first.run_epochs(3);
  // Through text, like the disk path: a field the dump loses shows here.
  const std::string snapshot = json::dump(first.save_state());

  ManyCoreSystem resumed(cfg, apps);
  resumed.load_state(json::parse(snapshot));
  resumed.run_epochs(2);

  EXPECT_EQ(json::dump(resumed.save_state()),
            json::dump(straight.save_state()));
  for (const auto& app : apps) {
    EXPECT_EQ(resumed.app_throughput(app.id), straight.app_throughput(app.id))
        << "app " << app.id;
  }
  EXPECT_EQ(resumed.measured_infection_rate(),
            straight.measured_infection_rate());
  ASSERT_EQ(resumed.gm().history().size(), straight.gm().history().size());
}

// Restoring a checkpoint from a different construction must throw, not
// silently mix two chips' state.
TEST(ManyCoreSystem, LoadStateRejectsMismatchedConstruction) {
  ManyCoreSystem small(small_cfg(), small_apps(64));
  small.run_epochs(1);
  const json::Value snap = small.save_state();

  SystemConfig other_cfg;
  other_cfg.width = 16;
  other_cfg.height = 16;
  other_cfg.epoch_cycles = 1500;
  ManyCoreSystem other(other_cfg, small_apps(256));
  EXPECT_THROW(other.load_state(snap), std::invalid_argument);
}

// A snapshot missing a component is rejected with an error naming the
// key, never a null dereference.
TEST(ManyCoreSystem, LoadStateRejectsSnapshotMissingAKey) {
  ManyCoreSystem sys(small_cfg(), small_apps(64));
  sys.run_epochs(1);
  const json::Value snap = sys.save_state();
  json::Object pruned;
  for (const auto& [key, value] : snap.as_object()) {
    if (key != "gm") pruned[key] = value;
  }
  ManyCoreSystem fresh(small_cfg(), small_apps(64));
  try {
    fresh.load_state(json::Value(std::move(pruned)));
    FAIL() << "load_state should have thrown";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("\"gm\""), std::string::npos);
  }
}

}  // namespace
}  // namespace htpb::system
