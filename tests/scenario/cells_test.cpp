// The fleet's correctness keystone: for every shardable kind,
// expand_cells + run_scenario per cell + merge_cell_results must equal a
// single run_scenario of the full spec BIT FOR BIT (minus "timing").
// Quick-sized custom specs keep the sweeps honest -- at least two slices
// per split axis -- without paper-scale runtimes.
#include "scenario/cells.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace {

using htpb::json::Value;
using htpb::scenario::CellPlan;
using htpb::scenario::ClusterSpec;
using htpb::scenario::RunOptions;
using htpb::scenario::ScenarioBuilder;
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
  ScenarioBuilder b("cells-ablation", ScenarioKind::kBudgeterAblation);
  b.size(64).mix("mix-1").warmup_epochs(1).measure_epochs(2);
  b.axes().budgeters = {power::BudgeterKind::kUniform,
                        power::BudgeterKind::kGreedy};
  const ScenarioSpec spec = b.build();
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

TEST(CellsTest, BudgeterAblationMergesBitIdentical) {
  ScenarioBuilder b("cells-ablation", ScenarioKind::kBudgeterAblation);
  b.size(64).mix("mix-1").warmup_epochs(1).measure_epochs(2);
  b.axes().budgeters = {power::BudgeterKind::kUniform,
                        power::BudgeterKind::kGreedy,
                        power::BudgeterKind::kProportional};
  expect_merge_bit_identical(b.build(), 3);
}

TEST(CellsTest, InfectionVsHtCountMergesBitIdentical) {
  ScenarioBuilder b("cells-fig3", ScenarioKind::kInfectionVsHtCount);
  b.size(64).warmup_epochs(0).measure_epochs(1);
  b.axes().arms = {{64, {2, 4}}, {128, {2}}};
  b.axes().gm_placements = {htpb::system::GmPlacement::kCenter,
                            htpb::system::GmPlacement::kCorner};
  b.axes().seeds = 2;
  expect_merge_bit_identical(b.build(), 3);
}

TEST(CellsTest, InfectionVsDistributionMergesBitIdentical) {
  ScenarioBuilder b("cells-fig4", ScenarioKind::kInfectionVsDistribution);
  b.size(64).warmup_epochs(0).measure_epochs(1);
  b.axes().sizes = {64, 128};
  b.axes().ht_divisors = {16, 8};
  b.axes().seeds = 2;
  expect_merge_bit_identical(b.build(), 4);
}

TEST(CellsTest, AttackEffectMergesBitIdentical) {
  ScenarioBuilder b("cells-fig5", ScenarioKind::kAttackEffect);
  b.size(64).warmup_epochs(1).measure_epochs(2);
  b.workload().mixes = {"mix-1", "mix-2"};
  b.axes().infection_targets = {0.2, 0.6};
  b.axes().placement_max_hts = 16;
  expect_merge_bit_identical(b.build(), 2);
}

TEST(CellsTest, PlacementStudySeedRebasingMergesBitIdentical) {
  // The one split that REBASES the cell seed (stream = seed + mix index):
  // a non-default seed catches any off-by-one in the rebase.
  ScenarioBuilder b("cells-secvc", ScenarioKind::kPlacementStudy);
  b.size(64).warmup_epochs(1).measure_epochs(2).seed(7);
  b.workload().mixes = {"mix-1", "mix-3"};
  b.axes().nodes = 64;
  b.axes().max_hts = 4;
  b.axes().train_samples = 10;  // must cover the effect model's coefficients
  b.axes().random_trials = 2;
  b.axes().candidates_per_m = 6;
  b.axes().shortlist = 2;
  expect_merge_bit_identical(b.build(), 2);
}

TEST(CellsTest, DefenseClosedLoopMergesBitIdentical) {
  ScenarioBuilder b("cells-loop", ScenarioKind::kDefenseClosedLoop);
  b.size(64)
      .mix("mix-1")
      .victim_scale(0.10)
      .attacker_boost(8.0)
      .trojan_active(false)
      .toggle_period(2)
      .warmup_epochs(1)
      .measure_epochs(3)
      .detector(htpb::power::DetectorConfig{})
      .response(htpb::power::ResponseConfig{})
      .adaptation(htpb::core::TrojanAdaptation{});
  b.axes().placements = {{ClusterSpec::At::kGm, 8},
                         {ClusterSpec::At::kQuarter, 8}};
  b.axes().responses = {power::ResponseKind::kQuarantine,
                        power::ResponseKind::kThrottle};
  // Cell 0 carries placement 0, so the merged duty_comparison (defined
  // on the first placement's response-free arms) comes from it verbatim.
  expect_merge_bit_identical(b.build(), 2);
}

TEST(CellsTest, SingleCellKindsPassThrough) {
  ScenarioBuilder b("cells-table1", ScenarioKind::kConfigReport);
  b.size(64);
  expect_merge_bit_identical(b.build(), 1);
}

TEST(CellsTest, FailedCellsLeaveHolesNotInvalidTrees) {
  ScenarioBuilder b("cells-ablation", ScenarioKind::kBudgeterAblation);
  b.size(64).mix("mix-1").warmup_epochs(1).measure_epochs(2);
  b.axes().budgeters = {power::BudgeterKind::kUniform,
                        power::BudgeterKind::kGreedy,
                        power::BudgeterKind::kProportional};
  const ScenarioSpec spec = b.build();
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

TEST(CellsTest, MergeRejectsCellCountMismatch) {
  ScenarioBuilder b("cells-ablation", ScenarioKind::kBudgeterAblation);
  b.size(64).mix("mix-1");
  b.axes().budgeters = {power::BudgeterKind::kUniform,
                        power::BudgeterKind::kGreedy};
  const ScenarioSpec spec = b.build();
  const std::vector<Value> wrong(3);
  EXPECT_THROW(
      (void)htpb::scenario::merge_cell_results(spec, false, 2, wrong),
      std::runtime_error);
}

}  // namespace
