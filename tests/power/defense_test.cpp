#include "power/defense.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

namespace htpb::power {
namespace {

std::vector<BudgetRequest> epoch(std::vector<std::uint32_t> mws) {
  std::vector<BudgetRequest> reqs;
  NodeId node = 0;
  for (const auto mw : mws) reqs.push_back({node++, 0, mw});
  return reqs;
}

TEST(RequestAnomalyDetector, QuietOnSteadyRequests) {
  RequestAnomalyDetector detector;
  for (int e = 0; e < 10; ++e) {
    const auto report = detector.observe_epoch(epoch({2000, 2100, 1900}));
    EXPECT_FALSE(report.any()) << "epoch " << e;
  }
  EXPECT_FALSE(detector.cumulative().any());
}

TEST(RequestAnomalyDetector, QuietOnGradualDrift) {
  RequestAnomalyDetector detector;
  // A workload phase change: requests drift down 15% per epoch -- inside
  // the trust band, so the history follows and nothing is flagged.
  double mw = 3000.0;
  for (int e = 0; e < 12; ++e) {
    const auto report =
        detector.observe_epoch(epoch({static_cast<std::uint32_t>(mw)}));
    EXPECT_FALSE(report.any()) << "epoch " << e;
    mw *= 0.85;
  }
}

TEST(RequestAnomalyDetector, FlagsAttenuatedVictim) {
  RequestAnomalyDetector detector;
  for (int e = 0; e < 4; ++e) (void)detector.observe_epoch(epoch({2000}));
  // The Trojan activates: requests collapse by 10x.
  (void)detector.observe_epoch(epoch({200}));
  const auto report = detector.observe_epoch(epoch({200}));
  ASSERT_EQ(report.flagged_low.size(), 1U);
  EXPECT_EQ(report.flagged_low[0], 0U);
  EXPECT_TRUE(report.flagged_high.empty());
}

TEST(RequestAnomalyDetector, FlagsBoostedAccomplice) {
  RequestAnomalyDetector detector;
  for (int e = 0; e < 4; ++e) (void)detector.observe_epoch(epoch({2000}));
  (void)detector.observe_epoch(epoch({16000}));
  const auto report = detector.observe_epoch(epoch({16000}));
  ASSERT_EQ(report.flagged_high.size(), 1U);
  EXPECT_TRUE(report.flagged_low.empty());
}

TEST(RequestAnomalyDetector, SingleSpikeNotConfirmed) {
  RequestAnomalyDetector detector;  // confirm_epochs = 2
  for (int e = 0; e < 4; ++e) (void)detector.observe_epoch(epoch({2000}));
  (void)detector.observe_epoch(epoch({200}));   // one anomalous epoch
  const auto report = detector.observe_epoch(epoch({2000}));  // recovers
  EXPECT_FALSE(report.any());
  EXPECT_FALSE(detector.cumulative().any());
}

TEST(RequestAnomalyDetector, EachCoreReportedOnce) {
  RequestAnomalyDetector detector;
  for (int e = 0; e < 4; ++e) (void)detector.observe_epoch(epoch({2000}));
  for (int e = 0; e < 6; ++e) (void)detector.observe_epoch(epoch({200}));
  EXPECT_EQ(detector.cumulative().flagged_low.size(), 1U);
}

TEST(RequestAnomalyDetector, AnomalousSamplesDoNotPoisonHistory) {
  RequestAnomalyDetector detector;
  for (int e = 0; e < 4; ++e) (void)detector.observe_epoch(epoch({2000}));
  const double before = detector.history_of(0);
  for (int e = 0; e < 5; ++e) (void)detector.observe_epoch(epoch({200}));
  // The history must still reflect the honest baseline, not the tampered
  // stream, so recovery is detected correctly.
  EXPECT_NEAR(detector.history_of(0), before, 1.0);
}

TEST(RequestAnomalyDetector, TracksEpochsAndDetectionLatency) {
  RequestAnomalyDetector detector;
  for (int e = 0; e < 4; ++e) (void)detector.observe_epoch(epoch({2000}));
  EXPECT_EQ(detector.cumulative().epochs_observed, 4U);
  EXPECT_EQ(detector.cumulative().first_flag_epoch, -1);
  (void)detector.observe_epoch(epoch({200}));  // epoch 4: first anomaly
  (void)detector.observe_epoch(epoch({200}));  // epoch 5: confirmed
  EXPECT_EQ(detector.cumulative().first_flag_epoch, 5);
  EXPECT_EQ(detector.cumulative().epochs_observed, 6U);
}

TEST(RequestAnomalyDetector, DefaultFactoryHonoursConfig) {
  DetectorConfig cfg;
  cfg.low_ratio = 0.9;
  cfg.confirm_epochs = 1;
  const auto detector = make_detector(cfg);
  ASSERT_NE(detector, nullptr);
  EXPECT_EQ(detector->config(), cfg);
  for (int e = 0; e < 4; ++e) (void)detector->observe_epoch(epoch({2000}));
  // With confirm_epochs = 1 a single 20% dip inside the 0.9 band flags.
  const auto report = detector->observe_epoch(epoch({1600}));
  EXPECT_EQ(report.flagged_low.size(), 1U);
}

// Each rule of DetectorConfig::validate(), one out-of-range member at a
// time; the message opens with the member's name.
TEST(DetectorConfig, ValidateNamesTheOutOfRangeMember) {
  EXPECT_NO_THROW(DetectorConfig{}.validate());
  const struct {
    const char* member;
    void (*mutate)(DetectorConfig&);
  } illegal[] = {
      {"confirm_epochs", [](DetectorConfig& d) { d.confirm_epochs = 0; }},
      {"low_ratio", [](DetectorConfig& d) { d.low_ratio = 3.0; }},
      {"low_ratio", [](DetectorConfig& d) { d.low_ratio = 0.0; }},
      {"history_alpha", [](DetectorConfig& d) { d.history_alpha = 7.0; }},
      {"history_alpha", [](DetectorConfig& d) { d.history_alpha = 0.0; }},
      {"warmup_epochs", [](DetectorConfig& d) { d.warmup_epochs = -1; }},
  };
  for (const auto& bad : illegal) {
    DetectorConfig cfg;
    bad.mutate(cfg);
    try {
      cfg.validate();
      ADD_FAILURE() << bad.member << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind(bad.member, 0), 0U) << e.what();
    }
  }
}

TEST(RequestAnomalyDetector, ZeroSamplesNeitherArmNorDecayHistory) {
  // Arming contract: zero-valued requests must not advance a core's
  // warmup (the old epochs_seen gate armed on them) and must not drag an
  // in-warmup history toward zero through the EWMA.
  RequestAnomalyDetector detector;
  (void)detector.observe_epoch(epoch({2000}));  // one positive seed
  for (int e = 0; e < 6; ++e) (void)detector.observe_epoch(epoch({0}));
  EXPECT_EQ(detector.history_of(0), 2000.0);  // not decayed
  EXPECT_EQ(detector.unarmed_cores(), 1U);    // still in warmup
  // Wakes at a wildly different level: still inside warmup, so no
  // instant verbatim trust -- and no flag either way yet.
  const auto report = detector.observe_epoch(epoch({200}));
  EXPECT_FALSE(report.any());
}

TEST(RequestAnomalyDetector, LateColdStartGetsFullWarmupNotVerbatimTrust) {
  // The re-seeding hole this PR closes: a core idle (zero-valued) through
  // warmup used to take its first live sample verbatim as trusted history
  // with no anomaly check. Now it runs the same positive-sample warmup as
  // everyone else, so one tampered wake-up sample is diluted by the
  // following warmup samples instead of standing alone as the whole
  // trusted history -- honest traffic after it is not flagged as a
  // "boost" against an attacked-level anchor.
  DetectorConfig cfg;
  cfg.warmup_epochs = 4;
  RequestAnomalyDetector detector(cfg);
  for (int e = 0; e < 4; ++e) (void)detector.observe_epoch(epoch({0, 2000}));
  EXPECT_EQ(detector.unarmed_cores(), 1U);  // node 0 unarmed, visibly
  // Node 0 wakes with one Trojan-attenuated sample, then runs honest.
  (void)detector.observe_epoch(epoch({200, 2000}));
  for (int e = 0; e < 6; ++e) {
    (void)detector.observe_epoch(epoch({2000, 2000}));
  }
  EXPECT_EQ(detector.unarmed_cores(), 0U);
  // Old behavior: 200 trusted verbatim -> the honest 2000s flagged high.
  EXPECT_TRUE(detector.cumulative().flagged_high.empty());
}

TEST(RequestAnomalyDetector, AnchoredFromFirstSampleIsTheDocumentedMiss) {
  // Self-history fundamental limit (why CohortMedianDetector exists): a
  // stream attacked from its very first sample anchors the trust band to
  // the attacked level and is never flagged.
  RequestAnomalyDetector ewma;
  CohortMedianDetector cohort{DetectorConfig{
      .kind = DetectorKind::kCohortMedian}};
  // Node 0 attenuated 10x from its first epoch; 4 honest peers.
  for (int e = 0; e < 8; ++e) {
    const auto reqs = epoch({200, 2000, 2100, 1900, 2000});
    (void)ewma.observe_epoch(reqs);
    (void)cohort.observe_epoch(reqs);
  }
  EXPECT_FALSE(ewma.cumulative().any());  // blind by construction
  ASSERT_EQ(cohort.cumulative().flagged_low.size(), 1U);
  EXPECT_EQ(cohort.cumulative().flagged_low[0], 0U);
}

TEST(CohortMedianDetector, CatchesAttackFromEpochZeroWithLowLatency) {
  CohortMedianDetector detector{DetectorConfig{
      .kind = DetectorKind::kCohortMedian}};  // confirm_epochs = 2
  for (int e = 0; e < 3; ++e) {
    (void)detector.observe_epoch(epoch({200, 2000, 2100, 1900, 16000}));
  }
  // Needs no history: confirmed on the second consecutive epoch.
  EXPECT_EQ(detector.cumulative().first_flag_epoch, 1);
  ASSERT_EQ(detector.cumulative().flagged_low.size(), 1U);
  EXPECT_EQ(detector.cumulative().flagged_low[0], 0U);
  ASSERT_EQ(detector.cumulative().flagged_high.size(), 1U);
  EXPECT_EQ(detector.cumulative().flagged_high[0], 4U);
  EXPECT_EQ(detector.unarmed_cores(), 0U);
}

TEST(CohortMedianDetector, QuietOnHomogeneousAndGloballyDriftingCohort) {
  CohortMedianDetector detector{DetectorConfig{
      .kind = DetectorKind::kCohortMedian}};
  // Whole-chip phase change: everyone drifts down together, the median
  // drifts with them -- no flags (the self-history analogue holds too).
  double mw = 3000.0;
  for (int e = 0; e < 10; ++e) {
    const auto v = static_cast<std::uint32_t>(mw);
    (void)detector.observe_epoch(epoch({v, v, v, v, v, v}));
    mw *= 0.80;
  }
  EXPECT_FALSE(detector.cumulative().any());
}

TEST(CohortMedianDetector, ThinCohortIsObservedButNotJudged) {
  CohortMedianDetector detector{DetectorConfig{
      .kind = DetectorKind::kCohortMedian}};
  for (int e = 0; e < 5; ++e) {
    (void)detector.observe_epoch(epoch({200, 2000, 2000}));  // < kMinCohort
  }
  EXPECT_FALSE(detector.cumulative().any());
  EXPECT_EQ(detector.cumulative().epochs_observed, 5U);
  EXPECT_EQ(detector.cumulative().observations, 15U);
}

TEST(CohortMedianDetector, IdleZeroSamplesAreNeverJudged) {
  // Same zero-sample contract as the self-history types: a zero-valued
  // request is not a cohort member -- it must not be flagged as an
  // attenuated victim just for sitting below the median.
  CohortMedianDetector detector{DetectorConfig{
      .kind = DetectorKind::kCohortMedian}};
  for (int e = 0; e < 5; ++e) {
    (void)detector.observe_epoch(epoch({0, 2000, 2100, 1900, 2000}));
  }
  EXPECT_FALSE(detector.cumulative().any());
}

TEST(CohortMedianDetector, FactoryDispatchesOnKind) {
  DetectorConfig cfg;
  cfg.kind = DetectorKind::kCohortMedian;
  const auto detector = make_detector(cfg);
  ASSERT_NE(detector, nullptr);
  EXPECT_NE(dynamic_cast<CohortMedianDetector*>(detector.get()), nullptr);
  EXPECT_EQ(detector->config(), cfg);
}

TEST(DetectorReport, UniqueFlaggedDeduplicatesAcrossLists) {
  // The defense-roc detection-rate regression: a core in both lists
  // (duty-cycle swings) must count once, or rates exceed 1.
  DetectorReport rep;
  rep.flagged_low = {3, 1, 7};
  rep.flagged_high = {1, 7, 9};
  EXPECT_EQ(rep.unique_flagged(), 4U);  // {1, 3, 7, 9}
  rep.flagged_high.clear();
  EXPECT_EQ(rep.unique_flagged(), 3U);
  rep.flagged_low.clear();
  EXPECT_EQ(rep.unique_flagged(), 0U);
}

TEST(GuardedBudgeter, ClampsTamperedRequests) {
  GuardedBudgeter guarded(make_budgeter(BudgeterKind::kProportional));
  // Build trust over several honest epochs.
  std::vector<BudgetGrant> grants;
  for (int e = 0; e < 5; ++e) {
    grants = guarded.allocate(epoch({2000, 2000, 2000, 2000}), 6000, 400);
  }
  const std::uint32_t honest_grant = grants[0].grant_mw;
  // Attack epoch: victim request slashed to 200, attacker boosted to 16000.
  grants = guarded.allocate(epoch({200, 16000, 2000, 2000}), 6000, 400);
  // The victim's grant is based on the clamped (trusted) value, so it
  // stays within the band of its honest grant rather than collapsing 10x.
  EXPECT_GT(grants[0].grant_mw, honest_grant / 3);
  // The attacker cannot multiply its share by 8 either.
  EXPECT_LT(grants[1].grant_mw, 3 * honest_grant);
}

TEST(GuardedBudgeter, TransparentForHonestTraffic) {
  GuardedBudgeter guarded(make_budgeter(BudgeterKind::kProportional));
  ProportionalBudgeter plain;
  std::vector<BudgetGrant> g1;
  std::vector<BudgetGrant> g2;
  for (int e = 0; e < 6; ++e) {
    const auto reqs = epoch({1000, 2000, 3000});
    g1 = guarded.allocate(reqs, 4000, 300);
    g2 = plain.allocate(reqs, 4000, 300);
  }
  ASSERT_EQ(g1.size(), g2.size());
  for (std::size_t i = 0; i < g1.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(g1[i].grant_mw),
                static_cast<double>(g2[i].grant_mw), 2.0);
  }
}

TEST(GuardedBudgeter, WarmupPassesRequestsUnclamped) {
  GuardedBudgeter guarded(make_budgeter(BudgeterKind::kProportional));
  ProportionalBudgeter plain;
  // A fresh guard has no trust history: a wildly uneven first epoch
  // passes through unclamped, exactly as without the guard.
  const auto reqs = epoch({200, 16000, 2000});
  const auto guarded_grants = guarded.allocate(reqs, 4000, 300);
  const auto plain_grants = plain.allocate(reqs, 4000, 300);
  ASSERT_EQ(guarded_grants.size(), plain_grants.size());
  for (std::size_t i = 0; i < guarded_grants.size(); ++i) {
    EXPECT_EQ(guarded_grants[i].grant_mw, plain_grants[i].grant_mw) << i;
  }
}

TEST(GuardedBudgeter, ZeroSamplesDoNotArmOrDecayTrust) {
  // Same cold-start contract as the detector: a core idle (zero-valued)
  // through warmup must not arm, and its eventual first live sample goes
  // through warmup instead of being clamped against a stale/empty band.
  GuardedBudgeter guarded(make_budgeter(BudgeterKind::kProportional));
  ProportionalBudgeter plain;
  for (int e = 0; e < 6; ++e) {
    (void)guarded.allocate(epoch({0, 2000}), 4000, 300);
  }
  // Node 0 wakes: still in warmup, so the request passes through
  // unclamped, exactly as the plain allocator would grant it.
  const auto reqs = epoch({1500, 2000});
  const auto g = guarded.allocate(reqs, 4000, 300);
  const auto p = plain.allocate(reqs, 4000, 300);
  ASSERT_EQ(g.size(), p.size());
  EXPECT_EQ(g[0].grant_mw, p[0].grant_mw);
}

TEST(GuardedBudgeter, BudgetStillRespected) {
  GuardedBudgeter guarded(make_budgeter(BudgeterKind::kGreedy));
  for (int e = 0; e < 6; ++e) {
    const auto grants = guarded.allocate(epoch({3000, 3000, 500}), 4000, 300);
    std::uint64_t total = 0;
    for (const auto& g : grants) total += g.grant_mw;
    EXPECT_LE(total, 4000U);
  }
}

}  // namespace
}  // namespace htpb::power
