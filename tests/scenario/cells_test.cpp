// The fleet's correctness keystone: for every shardable kind,
// expand_cells + run_scenario per cell + merge_cell_results must equal a
// single run_scenario of the full spec BIT FOR BIT (minus "timing").
// Quick-sized custom specs keep the sweeps honest -- at least two slices
// per split axis -- without paper-scale runtimes.
#include "scenario/cells.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace {

using htpb::json::Value;
using htpb::scenario::CellPlan;
using htpb::scenario::ClusterSpec;
using htpb::scenario::RunOptions;
using htpb::scenario::ScenarioKind;
using htpb::scenario::ScenarioSpec;

namespace power = htpb::power;

/// All tests pin --threads 2 on both sides; the determinism contract
/// makes that a no-op for the payload, but the envelope's reported
/// "threads" must match for whole-tree equality.
RunOptions pinned_threads() {
  RunOptions opts;
  opts.threads = 2;
  return opts;
}

Value without_timing(const Value& v) {
  htpb::json::Object out;
  for (const auto& [key, value] : v.as_object()) {
    if (key != "timing") out[key] = value;
  }
  return Value(std::move(out));
}

/// A 64-core spec of `kind` at the default epochs; each test sets the
/// axes its kind reads.
ScenarioSpec small_spec(const char* name, ScenarioKind kind) {
  ScenarioSpec s;
  s.name = name;
  s.kind = kind;
  s.system.width = 8;
  s.system.height = 8;
  return s;
}

/// The claim under test: run whole, then run sliced + merged, compare.
void expect_merge_bit_identical(const ScenarioSpec& spec,
                                std::size_t expected_cells) {
  const RunOptions opts = pinned_threads();
  const ScenarioSpec resolved = htpb::scenario::resolve(spec, opts);

  const Value whole = htpb::scenario::run_scenario(spec, opts);

  const std::vector<CellPlan> plan = htpb::scenario::expand_cells(resolved);
  ASSERT_EQ(plan.size(), expected_cells);
  std::vector<Value> results;
  results.reserve(plan.size());
  for (const CellPlan& cell : plan) {
    // Workers run the cell spec verbatim -- no quick, no seed override.
    results.push_back(htpb::scenario::run_scenario(cell.spec, RunOptions{}));
  }
  const Value merged = htpb::scenario::merge_cell_results(
      resolved, /*quick=*/false, /*threads=*/2, results);

  EXPECT_EQ(without_timing(whole), merged);
}

TEST(CellsTest, CellIdsAreUniqueAndOrderStable) {
  ScenarioSpec spec =
      small_spec("cells-ablation", ScenarioKind::kBudgeterAblation);
  spec.workload.mix = "mix-1";
  spec.axes.placements = {{ClusterSpec::At::kGm, 8}};
  spec.epochs = {1, 2};
  spec.axes.budgeters = {power::BudgeterKind::kUniform,
                         power::BudgeterKind::kGreedy};
  const auto plan = htpb::scenario::expand_cells(spec);
  ASSERT_EQ(plan.size(), 2U);
  EXPECT_EQ(plan[0].id, "c000-uniform");
  EXPECT_EQ(plan[1].id, "c001-greedy");
  // Cell specs are self-contained: they validate and carry no quick
  // overlay for a worker to re-apply.
  for (const auto& cell : plan) {
    EXPECT_TRUE(cell.spec.quick.is_null()) << cell.id;
    EXPECT_NO_THROW(cell.spec.validate()) << cell.id;
  }
}

/// `spec`'s cell plan as "id@seed" entries, space-separated.
std::string plan_text(const ScenarioSpec& spec, bool quick) {
  RunOptions opts;
  opts.quick = quick;
  std::string text;
  for (const CellPlan& cell :
       htpb::scenario::expand_cells(htpb::scenario::resolve(spec, opts))) {
    if (!text.empty()) text += ' ';
    text += cell.id + "@" + std::to_string(cell.spec.seed);
  }
  return text;
}

// Every registry scenario's fleet plan, ids and cell seeds, at --quick and
// at full size. A run dir written under one plan resumes only under it.
TEST(CellsTest, EveryRegistryScenarioCellPlanIsPinned) {
  const std::string mixes_seed1 =
      "c000-mix-1@1 c001-mix-2@1 c002-mix-3@1 c003-mix-4@1";
  const struct {
    const char* scenario;
    std::string quick;
    std::string full;
  } rows[] = {
      {"fig3", "c000-n64@1000 c001-n512@1000", "c000-n64@1000 c001-n512@1000"},
      {"fig4", "c000-d16@500 c001-d8@500", "c000-d16@500 c001-d8@500"},
      {"fig5", "c000-mix-1@42 c001-mix-2@42 c002-mix-3@42 c003-mix-4@42",
       "c000-mix-1@42 c001-mix-2@42 c002-mix-3@42 c003-mix-4@42"},
      {"table1", "c000-all@1", "c000-all@1"},
      {"table2", "c000-all@1", "c000-all@1"},
      {"secIIID-area-power", "c000-all@1", "c000-all@1"},
      // Each cell's seed is rebased to seed + mix index.
      {"secVC-placement",
       "c000-mix-1@7 c001-mix-2@8 c002-mix-3@9 c003-mix-4@10",
       "c000-mix-1@7 c001-mix-2@8 c002-mix-3@9 c003-mix-4@10"},
      {"defense-roc", "c000-all@1", "c000-all@1"},
      {"defense-evaluation", mixes_seed1, mixes_seed1},
      {"attack-comparison", "c000-all@7", "c000-all@7"},
      {"budgeter-ablation",
       "c000-uniform@1 c001-greedy@1 c002-proportional@1 c003-dp@1 "
       "c004-market@1",
       "c000-uniform@1 c001-greedy@1 c002-proportional@1 c003-dp@1 "
       "c004-market@1"},
      {"defense-closed-loop", "c000-gm@1", "c000-gm@1 c001-quarter@1"},
  };
  const auto& registry = htpb::scenario::registry();
  ASSERT_EQ(registry.size(), std::size(rows));
  for (std::size_t i = 0; i < registry.size(); ++i) {
    ASSERT_EQ(registry[i].name, rows[i].scenario);
    EXPECT_EQ(plan_text(registry[i], true), rows[i].quick) << rows[i].scenario;
    EXPECT_EQ(plan_text(registry[i], false), rows[i].full) << rows[i].scenario;
  }
}

TEST(CellsTest, BudgeterAblationMergesBitIdentical) {
  ScenarioSpec spec =
      small_spec("cells-ablation", ScenarioKind::kBudgeterAblation);
  spec.workload.mix = "mix-1";
  spec.axes.placements = {{ClusterSpec::At::kGm, 8}};
  spec.epochs = {1, 2};
  spec.axes.budgeters = {power::BudgeterKind::kUniform,
                         power::BudgeterKind::kGreedy,
                         power::BudgeterKind::kProportional};
  expect_merge_bit_identical(spec, 3);
}

TEST(CellsTest, InfectionVsHtCountMergesBitIdentical) {
  ScenarioSpec spec =
      small_spec("cells-fig3", ScenarioKind::kInfectionVsHtCount);
  spec.epochs = {0, 1};
  spec.axes.arms = {{64, {2, 4}}, {128, {2}}};
  spec.axes.gm_placements = {htpb::system::GmPlacement::kCenter,
                             htpb::system::GmPlacement::kCorner};
  spec.axes.seeds = 2;
  expect_merge_bit_identical(spec, 2);  // one cell per arm
}

TEST(CellsTest, InfectionVsDistributionMergesBitIdentical) {
  ScenarioSpec spec =
      small_spec("cells-fig4", ScenarioKind::kInfectionVsDistribution);
  spec.epochs = {0, 1};
  spec.axes.sizes = {64, 128};
  spec.axes.ht_divisors = {16, 8};
  spec.axes.seeds = 2;
  expect_merge_bit_identical(spec, 2);  // one cell per divisor
}

TEST(CellsTest, AttackEffectMergesBitIdentical) {
  ScenarioSpec spec = small_spec("cells-fig5", ScenarioKind::kAttackEffect);
  spec.epochs = {1, 2};
  spec.workload.mixes = {"mix-1", "mix-2"};
  spec.axes.infection_targets = {0.2, 0.6};
  spec.axes.max_hts = 16;
  expect_merge_bit_identical(spec, 2);
}

TEST(CellsTest, PlacementStudySeedRebasingMergesBitIdentical) {
  // The one split that REBASES the cell seed (stream = seed + mix index):
  // a non-default seed catches any off-by-one in the rebase.
  ScenarioSpec spec =
      small_spec("cells-secvc", ScenarioKind::kPlacementStudy);
  spec.epochs = {1, 2};
  spec.seed = 7;
  spec.workload.mixes = {"mix-1", "mix-3"};
  spec.axes.max_hts = 4;
  spec.axes.train_samples = 10;  // must cover the effect model's coefficients
  spec.axes.random_trials = 2;
  spec.axes.candidates_per_m = 6;
  spec.axes.shortlist = 2;
  expect_merge_bit_identical(spec, 2);
}

TEST(CellsTest, DefenseClosedLoopMergesBitIdentical) {
  ScenarioSpec spec =
      small_spec("cells-loop", ScenarioKind::kDefenseClosedLoop);
  spec.workload.mix = "mix-1";
  spec.trojan.victim_scale = 0.10;
  spec.trojan.attacker_boost = 8.0;
  spec.trojan.active = false;
  spec.trojan.toggle_period_epochs = 2;
  spec.epochs = {1, 3};
  spec.detector = power::DetectorConfig{};
  spec.response = power::ResponseConfig{};
  spec.axes.placements = {{ClusterSpec::At::kGm, 8},
                          {ClusterSpec::At::kQuarter, 8}};
  spec.axes.responses = {power::ResponseKind::kQuarantine,
                         power::ResponseKind::kThrottle};
  // Cell 0 carries placement 0, so the merged duty_comparison (defined
  // on the first placement's response-free arms) comes from it verbatim.
  expect_merge_bit_identical(spec, 2);
}

TEST(CellsTest, SingleCellKindsPassThrough) {
  expect_merge_bit_identical(
      small_spec("cells-table1", ScenarioKind::kConfigReport), 1);
}

TEST(CellsTest, FailedCellsLeaveHolesNotInvalidTrees) {
  ScenarioSpec spec =
      small_spec("cells-ablation", ScenarioKind::kBudgeterAblation);
  spec.workload.mix = "mix-1";
  spec.axes.placements = {{ClusterSpec::At::kGm, 8}};
  spec.epochs = {1, 2};
  spec.axes.budgeters = {power::BudgeterKind::kUniform,
                         power::BudgeterKind::kGreedy,
                         power::BudgeterKind::kProportional};
  const auto plan = htpb::scenario::expand_cells(spec);

  std::vector<Value> results(plan.size());  // all null = all failed
  results[1] = htpb::scenario::run_scenario(plan[1].spec, RunOptions{});

  const Value merged =
      htpb::scenario::merge_cell_results(spec, false, 2, results);
  const htpb::json::Object& root = merged.as_object();
  ASSERT_NE(root.find("rows"), nullptr);
  const htpb::json::Array& rows = root.find("rows")->as_array();
  ASSERT_EQ(rows.size(), 1U);
  EXPECT_EQ(rows[0].as_object().find("budgeter")->as_string(), "greedy");
}

TEST(CellsTest, MergeConcatenatesAnyPayloadArray) {
  // The merge names no payload key: an array no kind writes is
  // concatenated in cell order like any other.
  ScenarioSpec spec =
      small_spec("cells-ablation", ScenarioKind::kBudgeterAblation);
  spec.workload.mix = "mix-1";
  spec.axes.placements = {{ClusterSpec::At::kGm, 8}};
  spec.axes.budgeters = {power::BudgeterKind::kUniform,
                         power::BudgeterKind::kGreedy};
  std::vector<Value> results;
  for (const int widget : {1, 2}) {
    htpb::json::Object cell =
        htpb::scenario::result_envelope(spec, false, 1);
    cell["widgets"] = Value(htpb::json::Array{Value(widget)});
    cell["timing"] = Value(htpb::json::Object{});
    results.emplace_back(std::move(cell));
  }
  const Value merged =
      htpb::scenario::merge_cell_results(spec, false, 2, results);
  htpb::json::Object expected =
      htpb::scenario::result_envelope(spec, false, 2);
  expected["widgets"] = Value(htpb::json::Array{Value(1), Value(2)});
  EXPECT_EQ(merged, Value(std::move(expected)));
}

TEST(CellsTest, FailedCellZeroDropsItsNonArrayPayload) {
  // A non-array payload value is cell 0's; with cell 0 failed it is
  // absent rather than borrowed from another cell.
  ScenarioSpec spec =
      small_spec("cells-loop", ScenarioKind::kDefenseClosedLoop);
  spec.workload.mix = "mix-1";
  spec.trojan.victim_scale = 0.10;
  spec.trojan.attacker_boost = 8.0;
  spec.trojan.active = false;
  spec.trojan.toggle_period_epochs = 2;
  spec.epochs = {1, 3};
  spec.detector = power::DetectorConfig{};
  spec.response = power::ResponseConfig{};
  spec.axes.placements = {{ClusterSpec::At::kGm, 8},
                          {ClusterSpec::At::kQuarter, 8}};
  spec.axes.responses = {power::ResponseKind::kQuarantine};
  const auto plan = htpb::scenario::expand_cells(spec);
  ASSERT_EQ(plan.size(), 2U);

  std::vector<Value> results(plan.size());  // cell 0 failed
  results[1] = htpb::scenario::run_scenario(plan[1].spec, RunOptions{});
  const htpb::json::Object& cell1 = results[1].as_object();
  ASSERT_NE(cell1.find("attacker_cores"), nullptr);
  ASSERT_NE(cell1.find("duty_comparison"), nullptr);

  const Value merged =
      htpb::scenario::merge_cell_results(spec, false, 2, results);
  const htpb::json::Object& root = merged.as_object();
  ASSERT_NE(root.find("arms"), nullptr);
  EXPECT_EQ(*root.find("arms"), *cell1.find("arms"));
  EXPECT_EQ(root.find("attacker_cores"), nullptr);
  EXPECT_EQ(root.find("duty_comparison"), nullptr);
}

TEST(CellsTest, MergeRejectsCellCountMismatch) {
  ScenarioSpec spec =
      small_spec("cells-ablation", ScenarioKind::kBudgeterAblation);
  spec.workload.mix = "mix-1";
  spec.axes.placements = {{ClusterSpec::At::kGm, 8}};
  spec.axes.budgeters = {power::BudgeterKind::kUniform,
                         power::BudgeterKind::kGreedy};
  const std::vector<Value> wrong(3);
  EXPECT_THROW(
      (void)htpb::scenario::merge_cell_results(spec, false, 2, wrong),
      std::runtime_error);
}

}  // namespace
