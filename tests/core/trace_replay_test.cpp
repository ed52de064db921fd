// The record/replay contract this PR exists for:
//  1. Replay equivalence -- for any placement and DetectorConfig (and any
//     DetectorKind), replaying a recorded RequestTrace produces a
//     DetectorReport bit-identical to the report an in-simulation
//     detector would have filed for the same run.
//  2. Cost shape -- defense-roc's detection arm simulates O(placements)
//     systems, independent of the detector-grid size (asserted via the
//     AttackCampaign::systems_simulated counting hook), and every
//     simulated leg pays exactly one warmup (warmup_epochs_simulated).
//     Sweeps that vary only the attack side (closed-loop arms,
//     duty-cycle periods) simulate one baseline, not one per arm.
//  3. Attack-from-epoch-0 -- a Trojan live before the detector's warmup
//     completes: the self-history EWMA anchors to the attacked level and
//     misses it; the cohort-median detector catches it from the same
//     trace.
//  4. Disk persistence -- save/load round trips a trace exactly, replay
//     off the loaded trace is bit-identical, and corrupt files are
//     rejected instead of misread.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/placement.hpp"
#include "power/request_trace.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "workload/application.hpp"

namespace htpb::core {
namespace {

CampaignConfig base_config() {
  CampaignConfig cfg;
  cfg.system.width = 8;
  cfg.system.height = 8;
  cfg.system.epoch_cycles = 1000;
  cfg.mix = workload::standard_mixes().at(0);
  cfg.trojan.victim_scale = 0.10;
  cfg.trojan.attacker_boost = 8.0;
  // Mid-run activation: honest history first, then the Trojans wake up.
  cfg.trojan.active = false;
  cfg.toggle_period_epochs = 2;
  cfg.warmup_epochs = 1;
  cfg.measure_epochs = 4;
  cfg.detector = power::DetectorConfig{};
  return cfg;
}

/// One simulation of `placement` with its request stream recorded.
power::RequestTrace record(const AttackCampaign& campaign,
                           std::span<const NodeId> placement) {
  power::RequestTrace trace;
  (void)campaign.simulate(placement, &trace);
  return trace;
}

std::vector<std::vector<NodeId>> placements_for(const CampaignConfig& cfg) {
  const MeshGeometry geom(cfg.system.width, cfg.system.height);
  const AttackCampaign probe(cfg);
  const NodeId gm = probe.gm_node();
  return {
      clustered_placement(geom, 8, geom.coord_of(gm), gm),
      clustered_placement(geom, 4, MeshGeometry::corner(), gm),
  };
}

TEST(TraceReplay, ReplayBitIdenticalToInSimulationDetection) {
  const CampaignConfig cfg = base_config();
  const auto placements = placements_for(cfg);

  // Operating points spanning bands and both detector families.
  std::vector<power::DetectorConfig> detectors;
  for (const auto& [lo, hi] : {std::pair{0.6, 1.6}, std::pair{0.3, 3.0}}) {
    power::DetectorConfig d;
    d.low_ratio = lo;
    d.high_ratio = hi;
    detectors.push_back(d);
    d.kind = power::DetectorKind::kCohortMedian;
    detectors.push_back(d);
  }

  for (const auto& placement : placements) {
    // Record once per placement, detector-free.
    CampaignConfig record_cfg = cfg;
    record_cfg.detector.reset();
    AttackCampaign recorder(record_cfg);
    const power::RequestTrace trace = record(recorder, placement);
    ASSERT_FALSE(trace.empty());
    EXPECT_EQ(trace.node_count, 64);
    EXPECT_EQ(trace.epoch_cycles, 1000U);

    bool any_flag = false;
    for (const power::DetectorConfig& d : detectors) {
      // The expensive reference: a fresh simulation with the detector
      // attached in-sim.
      CampaignConfig in_sim_cfg = cfg;
      in_sim_cfg.detector = d;
      AttackCampaign in_sim(in_sim_cfg);
      const auto reference = in_sim.simulate(placement).detection;
      ASSERT_TRUE(reference.has_value());

      const power::DetectorReport replayed = power::replay_detector(trace, d);
      EXPECT_EQ(replayed, *reference);
      any_flag = any_flag || replayed.any();
    }
    // The equivalence must not be vacuous.
    EXPECT_TRUE(any_flag);
  }
}

TEST(TraceReplay, RecordingNeverPerturbsTheRun) {
  const CampaignConfig cfg = base_config();
  const auto placement = placements_for(cfg).front();

  const AttackCampaign campaign(cfg);
  const RunResult baseline = campaign.simulate({});
  power::RequestTrace trace;
  const CampaignOutcome traced =
      campaign.reduce(campaign.simulate(placement, &trace), baseline,
                      placement);
  const CampaignOutcome plain =
      campaign.reduce(campaign.simulate(placement), baseline, placement);

  // Recording is observational: the traced outcome matches a plain run
  // in every metric, in-sim detection included -- the trace is an
  // additional output, not a replacement.
  EXPECT_EQ(traced.infection_measured, plain.infection_measured);
  EXPECT_EQ(traced.q_valid, plain.q_valid);
  EXPECT_EQ(traced.q, plain.q);
  ASSERT_EQ(traced.apps.size(), plain.apps.size());
  for (std::size_t i = 0; i < plain.apps.size(); ++i) {
    EXPECT_EQ(traced.apps[i].theta_attacked, plain.apps[i].theta_attacked);
    EXPECT_EQ(traced.apps[i].change, plain.apps[i].change);
  }
  // The trace replayed through the configured detector reproduces the
  // in-sim report bit for bit.
  ASSERT_TRUE(traced.detection.has_value());
  ASSERT_TRUE(plain.detection.has_value());
  EXPECT_EQ(*traced.detection, *plain.detection);
  EXPECT_EQ(power::replay_detector(trace, *cfg.detector), *plain.detection);

  // A detector-free campaign records the identical stream.
  CampaignConfig bare = cfg;
  bare.detector.reset();
  EXPECT_EQ(record(AttackCampaign(bare), placement), trace);
}

TEST(TraceReplay, DetectionArmSimulationCountIsPlacementBound) {
  // base_config()'s chip and Trojans as a defense sweep over two
  // placements, no ROC grid.
  scenario::ScenarioSpec spec;
  spec.name = "placement-bound";
  spec.kind = scenario::ScenarioKind::kDefenseSweep;
  spec.system.width = 8;
  spec.system.height = 8;
  spec.system.epoch_cycles = 1000;
  spec.workload.mix = "mix-1";
  spec.trojan.victim_scale = 0.10;
  spec.trojan.attacker_boost = 8.0;
  spec.trojan.active = false;
  spec.trojan.toggle_period_epochs = 2;
  spec.epochs = {1, 4};
  spec.axes.placements = {{scenario::ClusterSpec::At::kGm, 8},
                          {scenario::ClusterSpec::At::kCorner, 4}};
  scenario::RunOptions two;
  two.threads = 2;

  const std::uint64_t placements = spec.axes.placements.size();
  const auto run_with_grid = [&](std::size_t grid) {
    spec.axes.bands.clear();
    for (std::size_t i = 0; i < grid; ++i) {
      spec.axes.bands.push_back({0.2 + 0.1 * static_cast<double>(i), 2.2});
    }
    const std::uint64_t before = AttackCampaign::systems_simulated();
    const std::uint64_t warmup_before =
        AttackCampaign::warmup_epochs_simulated();
    const json::Value tree = scenario::run_scenario(spec, two);
    const json::Object& curve = tree.as_object().find("curve")->as_object();
    EXPECT_EQ(curve.find("points")->as_array().size(), grid);
    const std::uint64_t systems = AttackCampaign::systems_simulated() - before;
    EXPECT_EQ(static_cast<std::uint64_t>(curve.find("simulations")->as_int()),
              systems);
    // One full warmup per simulated leg: the per-leg warmup is what
    // scenario benchmarks divide by when they report warmup reuse.
    EXPECT_EQ(AttackCampaign::warmup_epochs_simulated() - warmup_before,
              systems * static_cast<std::uint64_t>(spec.epochs.warmup));
    return systems;
  };

  // The detection and clean arms cost 1 shared baseline + |placements|
  // recorded runs + 1 clean recording, whatever the detector-grid size;
  // only the guard arm, which perturbs the dynamics, grows with the grid
  // (one baseline plus its placements per operating point).
  const auto expected = [&](std::uint64_t grid) {
    return 1 + placements + 1 + grid * (1 + placements);
  };
  EXPECT_EQ(run_with_grid(2), expected(2));
  EXPECT_EQ(run_with_grid(6), expected(6));

  // A migrating run is two legs, and each simulates its own warmup.
  CampaignConfig migrate_cfg = base_config();
  migrate_cfg.warmup_epochs = 2;
  migrate_cfg.measure_epochs = 8;
  migrate_cfg.detector->low_ratio = 0.6;
  migrate_cfg.detector->high_ratio = 1.6;
  power::ResponseConfig migrate;
  migrate.kind = power::ResponseKind::kMigrate;
  migrate.trigger = power::ResponseTrigger::kBoth;
  migrate_cfg.response = migrate;
  const AttackCampaign campaign(migrate_cfg);
  const RunResult baseline = campaign.simulate({});
  const std::uint64_t systems_before = AttackCampaign::systems_simulated();
  const std::uint64_t warmup_before = AttackCampaign::warmup_epochs_simulated();
  const auto placement = placements_for(migrate_cfg).front();
  const CampaignOutcome out = campaign.reduce(campaign.simulate(placement),
                                              baseline, placement);
  ASSERT_TRUE(out.response.has_value());
  ASSERT_EQ(out.response->migrations, 1);
  EXPECT_EQ(AttackCampaign::systems_simulated() - systems_before, 2U);
  EXPECT_EQ(AttackCampaign::warmup_epochs_simulated() - warmup_before,
            2U * static_cast<std::uint64_t>(migrate_cfg.warmup_epochs));
}

// The closed-loop grid shares a single Trojan-free baseline and derives
// every response arm whose trigger never fires from its response-free
// twin instead of simulating it.
TEST(TraceReplay, ClosedLoopArmsShareOneBaseline) {
  scenario::RunOptions quick;
  quick.quick = true;
  const std::uint64_t before = AttackCampaign::systems_simulated();
  const json::Value result = scenario::run_scenario(
      scenario::scenario_or_throw("defense-closed-loop"), quick);
  const std::uint64_t systems = AttackCampaign::systems_simulated() - before;

  // Simulated: the baseline, every response-free arm, every response arm
  // that sanctioned (one whose trigger never fired is its response-free
  // twin) and every migrated leg.
  const json::Array& arms = result.as_object().find("arms")->as_array();
  std::uint64_t expected = 1;
  for (const json::Value& arm : arms) {
    const json::Object& row = arm.as_object();
    if (row.find("response")->as_string() == "none") ++expected;
    if (const json::Value* first = row.find("first_sanction_epoch")) {
      if (first->as_int() >= 0) ++expected;
    }
    if (const json::Value* m = row.find("migrations")) {
      expected += static_cast<std::uint64_t>(m->as_int());
    }
  }
  EXPECT_EQ(systems, expected);
  EXPECT_LT(expected, 1 + arms.size());
}

// Every duty-cycle period of the attack comparison shares one baseline;
// the false-data arm adds its own baseline and attacked run, which is
// also the clean reference, and the flooding arm one run.
TEST(TraceReplay, DutyArmsShareOneBaseline) {
  scenario::RunOptions quick;
  quick.quick = true;
  const std::uint64_t before = AttackCampaign::systems_simulated();
  const json::Value result = scenario::run_scenario(
      scenario::scenario_or_throw("attack-comparison"), quick);
  const std::uint64_t systems = AttackCampaign::systems_simulated() - before;

  const std::size_t periods =
      result.as_object().find("duty_cycle")->as_array().size();
  ASSERT_GT(periods, 1U);
  EXPECT_EQ(systems, 2 + 1 + 1 + periods);
}

TEST(TraceReplay, EpochZeroAttackMissedByEwmaCaughtByCohort) {
  CampaignConfig cfg = base_config();
  // The Trojan is live at power-on and the CONFIG_CMD broadcast completes
  // before the first POWER_REQ flies: every sample the detector ever sees
  // from a covered victim is already attenuated.
  cfg.trojan.active = true;
  cfg.toggle_period_epochs = 0;
  cfg.system.first_epoch_cycle = 600;
  cfg.detector.reset();

  const MeshGeometry geom(cfg.system.width, cfg.system.height);
  const AttackCampaign probe(cfg);
  const auto placement = clustered_placement(
      geom, 8, geom.coord_of(probe.gm_node()), probe.gm_node());

  const power::RequestTrace trace = record(AttackCampaign(cfg), placement);
  ASSERT_FALSE(trace.empty());

  power::DetectorConfig ewma;  // kSelfEwma defaults
  power::DetectorConfig cohort;
  cohort.kind = power::DetectorKind::kCohortMedian;

  const power::DetectorReport ewma_report =
      power::replay_detector(trace, ewma);
  const power::DetectorReport cohort_report =
      power::replay_detector(trace, cohort);

  // Self-history EWMA: the attacked cores' histories are anchored to the
  // attenuated level from their first sample -- nothing ever crosses the
  // band. The documented blind spot.
  EXPECT_TRUE(ewma_report.flagged_low.empty());
  // Cohort median: the attenuated minority sits ~10x below the epoch
  // median from epoch 0 and is confirmed within confirm_epochs.
  EXPECT_FALSE(cohort_report.flagged_low.empty());
  EXPECT_GE(cohort_report.first_flag_epoch, 0);
  EXPECT_LE(cohort_report.first_flag_epoch, 2);

  // In-sim cross-check: a campaign running the cohort detector live
  // surfaces the identical report.
  CampaignConfig in_sim_cfg = cfg;
  in_sim_cfg.detector = cohort;
  AttackCampaign in_sim(in_sim_cfg);
  const auto live = in_sim.simulate(placement).detection;
  ASSERT_TRUE(live.has_value());
  EXPECT_EQ(*live, cohort_report);
}

// Regression: a trace recorded on one geometry must not be replayed
// through a scenario that builds a different chip -- core IDs and epoch
// boundaries would silently mean different things. The runner refuses
// with both geometries named.
TEST(TraceReplay, ScenarioReplayRejectsMismatchedTraceGeometry) {
  scenario::ScenarioSpec spec;
  spec.name = "geom-check";
  spec.kind = scenario::ScenarioKind::kAttackEffect;
  spec.system.width = 8;
  spec.system.height = 8;
  spec.system.epoch_cycles = 1500;
  spec.trojan.victim_scale = 0.10;
  spec.trojan.attacker_boost = 8.0;
  spec.epochs = {1, 2};
  spec.workload.mixes = {"mix-1"};
  spec.axes.infection_targets = {0.5};
  spec.axes.max_hts = 16;

  const power::RequestTrace trace = scenario::record_scenario_trace(spec);
  ASSERT_FALSE(trace.empty());
  EXPECT_NO_THROW((void)scenario::replay_scenario_detectors(spec, trace));

  power::RequestTrace wrong_nodes = trace;
  wrong_nodes.node_count = 256;
  try {
    (void)scenario::replay_scenario_detectors(spec, wrong_nodes);
    FAIL() << "mismatched node count accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("256"), std::string::npos) << what;
    EXPECT_NE(what.find("64"), std::string::npos) << what;
  }

  power::RequestTrace wrong_epochs = trace;
  wrong_epochs.epoch_cycles = 777;
  EXPECT_THROW(
      (void)scenario::replay_scenario_detectors(spec, wrong_epochs),
      std::runtime_error);
}

/// Self-deleting temp path under the ctest working directory.
class TempFile {
 public:
  explicit TempFile(std::string name) : path_(std::move(name)) {}
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

TEST(TraceIo, SaveLoadRoundTripsExactly) {
  const CampaignConfig cfg = base_config();
  const auto placement = placements_for(cfg).front();
  CampaignConfig record_cfg = cfg;
  record_cfg.detector.reset();
  const power::RequestTrace trace =
      record(AttackCampaign(record_cfg), placement);
  ASSERT_FALSE(trace.empty());

  const TempFile file("trace_io_roundtrip.htpbtrc");
  trace.save(file.path());
  const power::RequestTrace loaded = power::RequestTrace::load(file.path());

  // Field-for-field equality, epochs and requests included.
  EXPECT_EQ(loaded, trace);

  // Replay off the loaded trace is bit-identical to replay off the
  // in-memory recording -- detector research can iterate purely on files.
  power::DetectorConfig ewma;
  power::DetectorConfig cohort;
  cohort.kind = power::DetectorKind::kCohortMedian;
  EXPECT_EQ(power::replay_detector(loaded, ewma),
            power::replay_detector(trace, ewma));
  EXPECT_EQ(power::replay_detector(loaded, cohort),
            power::replay_detector(trace, cohort));
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  power::RequestTrace trace;
  trace.node_count = 16;
  trace.epoch_cycles = 500;
  const TempFile file("trace_io_empty.htpbtrc");
  trace.save(file.path());
  EXPECT_EQ(power::RequestTrace::load(file.path()), trace);
}

TEST(TraceIo, SaveIntoMissingDirectoryNamesThePathAndReason) {
  power::RequestTrace trace;
  trace.node_count = 16;
  trace.epoch_cycles = 500;
  try {
    trace.save("no_such_dir_htpb/trace.htpbtrc");
    FAIL() << "save into a missing directory did not throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no_such_dir_htpb/trace.htpbtrc"), std::string::npos)
        << what;
    EXPECT_NE(what.find("No such file"), std::string::npos) << what;
  }
}

TEST(TraceIo, RejectsCorruptAndForeignFiles) {
  // The error must name the path AND the OS reason -- "cannot open" with
  // neither is useless in a fleet log.
  try {
    (void)power::RequestTrace::load("does_not_exist.htpbtrc");
    FAIL() << "load of a missing file did not throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("does_not_exist.htpbtrc"), std::string::npos) << what;
    EXPECT_NE(what.find("No such file"), std::string::npos) << what;
  }

  const TempFile garbage("trace_io_garbage.htpbtrc");
  {
    std::ofstream out(garbage.path(), std::ios::binary);
    out << "{\"this\": \"is json, not a trace\"}";
  }
  EXPECT_THROW((void)power::RequestTrace::load(garbage.path()),
               std::runtime_error);

  // Truncation inside the epoch stream must throw, not misread.
  const CampaignConfig cfg = base_config();
  const auto placement = placements_for(cfg).front();
  CampaignConfig record_cfg = cfg;
  record_cfg.detector.reset();
  const power::RequestTrace trace =
      record(AttackCampaign(record_cfg), placement);
  const TempFile whole("trace_io_whole.htpbtrc");
  trace.save(whole.path());

  std::string bytes;
  {
    std::ifstream in(whole.path(), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  const TempFile cut("trace_io_truncated.htpbtrc");
  {
    std::ofstream out(cut.path(), std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_THROW((void)power::RequestTrace::load(cut.path()),
               std::runtime_error);

  // A flipped version field is rejected by number, not misread.
  const TempFile wrong_version("trace_io_version.htpbtrc");
  {
    std::string v = bytes;
    v[8] = 99;  // version u32 starts right after the 8-byte magic
    std::ofstream out(wrong_version.path(), std::ios::binary);
    out.write(v.data(), static_cast<std::streamsize>(v.size()));
  }
  EXPECT_THROW((void)power::RequestTrace::load(wrong_version.path()),
               std::runtime_error);

  // Trailing bytes after a well-formed body are rejected too.
  const TempFile padded("trace_io_padded.htpbtrc");
  {
    std::ofstream out(padded.path(), std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out << "extra";
  }
  EXPECT_THROW((void)power::RequestTrace::load(padded.path()),
               std::runtime_error);
}

/// Expects load() of `path` to throw a runtime_error naming the path and
/// `detail`.
void expect_load_rejects(const std::string& path, const std::string& detail) {
  try {
    (void)power::RequestTrace::load(path);
    FAIL() << "load of " << path << " did not throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find(detail), std::string::npos) << what;
  }
}

TEST(TraceIo, RejectsNodesOutsideTheMesh) {
  // A 64-node trace whose last request names node 63 loads; one that
  // names node 64 or 9999 would file flags for cores the chip lacks.
  power::RequestTrace trace;
  trace.node_count = 64;
  trace.epoch_cycles = 500;
  trace.epochs.resize(2);
  trace.epochs[0].requests = {{0, 0, 100}, {63, 1, 200}};
  const TempFile edge("trace_io_edge_node.htpbtrc");
  trace.save(edge.path());
  EXPECT_EQ(power::RequestTrace::load(edge.path()), trace);

  for (const NodeId node : {NodeId{64}, NodeId{9999}}) {
    trace.epochs[1].requests = {{node, 1, 200}};
    const TempFile hostile("trace_io_hostile_node.htpbtrc");
    trace.save(hostile.path());
    expect_load_rejects(hostile.path(), "node " + std::to_string(node));
  }
}

TEST(TraceIo, RejectsNodeCountsOutsideInt) {
  power::RequestTrace trace;
  trace.epoch_cycles = 500;
  const TempFile zero("trace_io_zero_nodes.htpbtrc");
  trace.save(zero.path());
  expect_load_rejects(zero.path(), "node count 0");

  // 2^31 nodes: the u32 header field after the magic and the version
  // would turn negative as an int.
  trace.node_count = 16;
  const TempFile huge("trace_io_huge_nodes.htpbtrc");
  trace.save(huge.path());
  std::string bytes;
  {
    std::ifstream in(huge.path(), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  bytes[12] = 0;
  bytes[13] = 0;
  bytes[14] = 0;
  bytes[15] = static_cast<char>(0x80);
  {
    std::ofstream out(huge.path(), std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  expect_load_rejects(huge.path(), "node count 2147483648");
}

}  // namespace
}  // namespace htpb::core
