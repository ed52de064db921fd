// Per-policy behaviour plus TEST_P invariants every budgeter must satisfy.
#include "power/budgeter.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.hpp"

namespace htpb::power {
namespace {

std::vector<BudgetRequest> make_requests(std::vector<std::uint32_t> mws) {
  std::vector<BudgetRequest> reqs;
  NodeId node = 0;
  for (const auto mw : mws) {
    reqs.push_back(BudgetRequest{node++, 0, mw});
  }
  return reqs;
}

std::uint64_t total(const std::vector<BudgetGrant>& grants) {
  std::uint64_t sum = 0;
  for (const auto& g : grants) sum += g.grant_mw;
  return sum;
}

TEST(UniformBudgeter, EqualSplitWhenScarce) {
  UniformBudgeter b;
  const auto reqs = make_requests({4000, 4000, 4000, 4000});
  const auto grants = b.allocate(reqs, 4000, 500);
  for (const auto& g : grants) EXPECT_EQ(g.grant_mw, 1000U);
}

TEST(UniformBudgeter, LeftoverRedistributed) {
  UniformBudgeter b;
  // One tiny request frees budget for the others.
  const auto reqs = make_requests({100, 4000, 4000});
  const auto grants = b.allocate(reqs, 4100, 100);
  EXPECT_EQ(grants[0].grant_mw, 100U);
  EXPECT_EQ(grants[1].grant_mw, 2000U);
  EXPECT_EQ(grants[2].grant_mw, 2000U);
}

TEST(GreedyBudgeter, SmallestRequestsSatisfiedFirst) {
  GreedyBudgeter b;
  const auto reqs = make_requests({3000, 500, 1000});
  const auto grants = b.allocate(reqs, 2000, 100);
  EXPECT_EQ(grants[1].grant_mw, 500U);   // fully satisfied
  EXPECT_EQ(grants[2].grant_mw, 1000U);  // fully satisfied
  EXPECT_EQ(grants[0].grant_mw, 500U);   // remainder
}

TEST(ProportionalBudgeter, GrantsScaleWithRequests) {
  ProportionalBudgeter b;
  const auto reqs = make_requests({1000, 2000, 4000});
  const auto grants = b.allocate(reqs, 3500, 0);
  // Headroom above the (zero) floor is 7000; scale = 0.5.
  EXPECT_EQ(grants[0].grant_mw, 500U);
  EXPECT_EQ(grants[1].grant_mw, 1000U);
  EXPECT_EQ(grants[2].grant_mw, 2000U);
}

TEST(ProportionalBudgeter, TheAttackLeverExists) {
  // The vulnerability the Trojan exploits: inflating your request grows
  // your grant at everyone else's expense.
  ProportionalBudgeter b;
  const auto honest = make_requests({2000, 2000, 2000, 2000});
  auto tampered = honest;
  tampered[0].request_mw = 8000;  // attacker boosted
  tampered[1].request_mw = 250;   // victim attenuated
  const auto g_honest = b.allocate(honest, 5000, 400);
  const auto g_tampered = b.allocate(tampered, 5000, 400);
  EXPECT_GT(g_tampered[0].grant_mw, g_honest[0].grant_mw);
  EXPECT_LT(g_tampered[1].grant_mw, g_honest[1].grant_mw);
}

TEST(DpBudgeter, PrefersSpreadingOverConcentration) {
  // sqrt utility has diminishing returns, so two half-fed cores beat one
  // fully-fed core.
  DpBudgeter b(10);
  const auto reqs = make_requests({1000, 1000});
  const auto grants = b.allocate(reqs, 1000, 0);
  EXPECT_NEAR(static_cast<double>(grants[0].grant_mw), 500.0, 30.0);
  EXPECT_NEAR(static_cast<double>(grants[1].grant_mw), 500.0, 30.0);
}

TEST(MarketBudgeter, SurplusFlowsToUnmetDemand) {
  MarketBudgeter b;
  const auto reqs = make_requests({500, 8000});
  const auto grants = b.allocate(reqs, 4000, 100);
  EXPECT_EQ(grants[0].grant_mw, 500U);
  // The second core receives its endowment plus the first one's surplus.
  EXPECT_GT(grants[1].grant_mw, 3000U);
  EXPECT_LE(total(grants), 4000U);
}

TEST(MakeBudgeter, AllKindsConstructible) {
  for (const auto kind :
       {BudgeterKind::kUniform, BudgeterKind::kGreedy,
        BudgeterKind::kProportional, BudgeterKind::kDynamicProgramming,
        BudgeterKind::kMarket}) {
    EXPECT_NE(make_budgeter(kind), nullptr) << to_string(kind);
  }
}

// ---- Invariants every policy must satisfy -------------------------------

struct BudgeterInvariantParam {
  BudgeterKind kind;
  std::uint64_t seed;
};

class BudgeterInvariantTest
    : public ::testing::TestWithParam<BudgeterInvariantParam> {};

TEST_P(BudgeterInvariantTest, FeasibilityUnderRandomLoads) {
  const auto param = GetParam();
  const auto budgeter = make_budgeter(param.kind);
  const char* name = to_string(param.kind);
  Rng rng(param.seed);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 1 + static_cast<int>(rng.below(64));
    std::vector<BudgetRequest> reqs;
    for (int i = 0; i < n; ++i) {
      reqs.push_back(BudgetRequest{static_cast<NodeId>(i), 0,
                                   static_cast<std::uint32_t>(rng.below(5000))});
    }
    const std::uint32_t floor = static_cast<std::uint32_t>(rng.below(800));
    const std::uint64_t budget = rng.below(200'000);
    const auto grants = budgeter->allocate(reqs, budget, floor);

    ASSERT_EQ(grants.size(), reqs.size());
    EXPECT_LE(total(grants), budget) << name;
    for (std::size_t i = 0; i < grants.size(); ++i) {
      EXPECT_EQ(grants[i].node, reqs[i].node);
      EXPECT_LE(grants[i].grant_mw, reqs[i].request_mw)
          << name << ": grant exceeds request";
    }
    // If the budget covers all floors, everyone gets at least
    // min(floor, request).
    std::uint64_t floor_sum = 0;
    for (const auto& r : reqs) {
      floor_sum += std::min(floor, r.request_mw);
    }
    if (floor_sum <= budget) {
      for (std::size_t i = 0; i < grants.size(); ++i) {
        EXPECT_GE(grants[i].grant_mw, std::min(floor, reqs[i].request_mw))
            << name << ": floor violated";
      }
    }
  }
}

TEST_P(BudgeterInvariantTest, AbundantBudgetSatisfiesEveryone) {
  const BudgeterKind kind = GetParam().kind;
  const auto budgeter = make_budgeter(kind);
  const auto reqs = make_requests({1000, 2500, 400, 3300});
  const auto grants = budgeter->allocate(reqs, 1'000'000, 500);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(grants[i].grant_mw, reqs[i].request_mw) << to_string(kind);
  }
}

TEST_P(BudgeterInvariantTest, EmptyRequestListYieldsNothing) {
  const auto budgeter = make_budgeter(GetParam().kind);
  const auto grants = budgeter->allocate({}, 10'000, 500);
  EXPECT_TRUE(grants.empty());
}

TEST_P(BudgeterInvariantTest, ZeroBudgetGrantsNothing) {
  const auto budgeter = make_budgeter(GetParam().kind);
  const auto reqs = make_requests({1000, 2000});
  const auto grants = budgeter->allocate(reqs, 0, 500);
  EXPECT_EQ(total(grants), 0U);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, BudgeterInvariantTest,
    ::testing::Values(
        BudgeterInvariantParam{BudgeterKind::kUniform, 11},
        BudgeterInvariantParam{BudgeterKind::kGreedy, 22},
        BudgeterInvariantParam{BudgeterKind::kProportional, 33},
        BudgeterInvariantParam{BudgeterKind::kDynamicProgramming, 44},
        BudgeterInvariantParam{BudgeterKind::kMarket, 55}),
    [](const ::testing::TestParamInfo<BudgeterInvariantParam>& info) {
      return to_string(info.param.kind);
    });

}  // namespace
}  // namespace htpb::power
