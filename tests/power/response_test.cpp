// The response engine's own sanction enforcement: which verdicts a
// trigger listens to, and how quarantine, throttle and migrate act on one
// epoch's requests and grants.
#include "power/response.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace htpb::power {
namespace {

DetectorReport verdicts(std::vector<NodeId> high, std::vector<NodeId> low) {
  DetectorReport r;
  r.flagged_high = std::move(high);
  r.flagged_low = std::move(low);
  return r;
}

std::vector<NodeId> nodes_of(const std::vector<BudgetRequest>& requests) {
  std::vector<NodeId> nodes;
  for (const BudgetRequest& r : requests) nodes.push_back(r.node);
  return nodes;
}

ResponseEngine engine_sanctioning(ResponseKind kind, ResponseTrigger trigger,
                                  const DetectorReport& report) {
  ResponseConfig cfg;
  cfg.kind = kind;
  cfg.trigger = trigger;
  ResponseEngine engine(cfg);
  engine.begin_epoch(report);
  return engine;
}

TEST(ResponseTrigger, VisitsHighVerdictsThenLow) {
  const DetectorReport report = verdicts({3, 1}, {2});
  const auto visited = [&](ResponseTrigger trigger) {
    std::vector<NodeId> nodes;
    for_each_triggered(trigger, report,
                       [&nodes](NodeId n) { nodes.push_back(n); });
    return nodes;
  };
  EXPECT_EQ(visited(ResponseTrigger::kHigh), (std::vector<NodeId>{3, 1}));
  EXPECT_EQ(visited(ResponseTrigger::kLow), (std::vector<NodeId>{2}));
  EXPECT_EQ(visited(ResponseTrigger::kBoth), (std::vector<NodeId>{3, 1, 2}));
}

TEST(ResponseEngine, QuarantineDropsCountsAndOrdersTheDenied) {
  ResponseEngine engine = engine_sanctioning(
      ResponseKind::kQuarantine, ResponseTrigger::kBoth, verdicts({7, 3}, {5}));
  std::vector<BudgetRequest> requests = {
      {1, 0, 900}, {5, 0, 100}, {3, 1, 4000}, {2, 0, 800}, {7, 1, 4000}};
  const std::vector<NodeId> denied = engine.filter_requests(requests, 500);
  EXPECT_EQ(denied, (std::vector<NodeId>{5, 3, 7}));  // request order
  EXPECT_EQ(nodes_of(requests), (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(requests[0].request_mw, 900U);
  EXPECT_EQ(requests[1].request_mw, 800U);
  EXPECT_EQ(engine.stats().denied_requests, 3U);
  EXPECT_EQ(engine.stats().clamped_requests, 0U);
  // Quarantine withholds the grant altogether; it never caps one.
  EXPECT_EQ(engine.cap_grant(3, 2000, 500), 2000U);
}

TEST(ResponseEngine, ThrottleClampsOnlyAboveTheFloor) {
  ResponseEngine engine = engine_sanctioning(
      ResponseKind::kThrottle, ResponseTrigger::kHigh, verdicts({2, 4}, {6}));
  std::vector<BudgetRequest> requests = {
      {1, 0, 900}, {2, 1, 900}, {4, 1, 300}, {6, 0, 900}};
  EXPECT_TRUE(engine.filter_requests(requests, 500).empty());
  ASSERT_EQ(nodes_of(requests), (std::vector<NodeId>{1, 2, 4, 6}));
  EXPECT_EQ(requests[0].request_mw, 900U);  // not sanctioned
  EXPECT_EQ(requests[1].request_mw, 500U);  // clamped to the floor
  EXPECT_EQ(requests[2].request_mw, 300U);  // already below it
  EXPECT_EQ(requests[3].request_mw, 900U);  // low verdict, high trigger
  EXPECT_EQ(engine.stats().clamped_requests, 1U);
  EXPECT_EQ(engine.stats().denied_requests, 0U);

  EXPECT_EQ(engine.cap_grant(2, 800, 500), 500U);
  EXPECT_EQ(engine.cap_grant(4, 400, 500), 400U);
  EXPECT_EQ(engine.cap_grant(1, 800, 500), 800U);
  EXPECT_EQ(engine.cap_grant(6, 800, 500), 800U);
}

TEST(ResponseEngine, MigrateAndUnsanctionedRequestsPassThrough) {
  const std::vector<BudgetRequest> original = {{1, 0, 900}, {2, 1, 4000}};

  ResponseEngine migrate = engine_sanctioning(
      ResponseKind::kMigrate, ResponseTrigger::kBoth, verdicts({2}, {1}));
  ASSERT_TRUE(migrate.sanctioned(2));
  std::vector<BudgetRequest> requests = original;
  EXPECT_TRUE(migrate.filter_requests(requests, 500).empty());
  EXPECT_EQ(nodes_of(requests), nodes_of(original));
  EXPECT_EQ(requests[1].request_mw, 4000U);
  EXPECT_EQ(migrate.cap_grant(2, 3000, 500), 3000U);
  EXPECT_EQ(migrate.stats().denied_requests, 0U);
  EXPECT_EQ(migrate.stats().clamped_requests, 0U);

  for (const ResponseKind kind :
       {ResponseKind::kQuarantine, ResponseKind::kThrottle}) {
    ResponseEngine idle =
        engine_sanctioning(kind, ResponseTrigger::kBoth, verdicts({}, {}));
    requests = original;
    EXPECT_TRUE(idle.filter_requests(requests, 500).empty());
    EXPECT_EQ(nodes_of(requests), nodes_of(original));
    EXPECT_EQ(requests[1].request_mw, 4000U);
    EXPECT_EQ(idle.cap_grant(2, 3000, 500), 3000U);
    EXPECT_EQ(idle.stats(), ResponseStats{});
  }
}

TEST(ResponseConfig, ValidateNamesTheOutOfRangeMember) {
  EXPECT_NO_THROW(ResponseConfig{}.validate());
  const struct {
    const char* member;
    void (*mutate)(ResponseConfig&);
  } illegal[] = {
      {"sanction_epochs", [](ResponseConfig& r) { r.sanction_epochs = 0; }},
      {"recovery_threshold",
       [](ResponseConfig& r) { r.recovery_threshold = 0.0; }},
      {"recovery_threshold",
       [](ResponseConfig& r) { r.recovery_threshold = 2.5; }},
  };
  for (const auto& bad : illegal) {
    ResponseConfig cfg;
    bad.mutate(cfg);
    try {
      cfg.validate();
      ADD_FAILURE() << bad.member << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind(bad.member, 0), 0U) << e.what();
    }
  }
}

}  // namespace
}  // namespace htpb::power
