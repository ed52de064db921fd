// The ScenarioSpec serialization contract: exact JSON round trips,
// unknown-key rejection, schema versioning, exhaustive enum <-> string
// maps, the quick overlay, the --set override grammar and validate().
#include "scenario/spec.hpp"

#include <gtest/gtest.h>

#include "scenario/registry.hpp"
#include "scenario/spec_codec.hpp"

namespace htpb::scenario {
namespace {

/// A spec exercising every section and most axis fields with non-default
/// values (the round trip must preserve each one).
ScenarioSpec full_spec() {
  ScenarioSpec s;
  s.name = "kitchen-sink";
  s.kind = ScenarioKind::kDefenseSweep;
  s.title = "t";
  s.paper_ref = "p";
  s.expectation = "e";
  s.system.width = 10;
  s.system.height = 6;
  s.system.epoch_cycles = 1234;
  s.system.first_epoch_cycle = 77;
  s.system.budget_fraction = 0.37;
  s.system.budgeter = power::BudgeterKind::kMarket;
  s.system.gm_placement = system::GmPlacement::kCorner;
  s.system.seed = 17;
  s.workload.mix = "mix-2";
  s.workload.threads_per_app = 4;
  s.trojan.active = false;
  s.trojan.victim_scale = 0.21;
  s.trojan.attacker_boost = 5.5;
  s.trojan.toggle_period_epochs = 3;
  // Parameters without the switch: enabled stays off.
  s.trojan.adaptation.alpha = 0.25;
  s.trojan.adaptation.backoff_ratio = 0.5;
  s.trojan.adaptation.max_on_epochs = 2;
  s.trojan.adaptation.hold_off_epochs = 3;
  s.epochs = {1, 4};
  s.seed = 987654321;
  s.quick = json::parse(R"({"epochs": {"measure": 2}})");
  power::DetectorConfig det;
  det.kind = power::DetectorKind::kCohortMedian;
  det.low_ratio = 0.5;
  det.high_ratio = 1.9;
  det.history_alpha = 0.3;
  det.warmup_epochs = 1;
  det.confirm_epochs = 3;
  s.detector = det;
  s.axes.responses = {power::ResponseKind::kThrottle,
                      power::ResponseKind::kMigrate};
  s.axes.bands = {{0.7, 1.4}, {0.33, 2.9}};
  s.axes.placements = {{ClusterSpec::At::kQuarter, 6},
                       {ClusterSpec::At::kCorner, 4}};
  s.axes.roc.periods = {0, 2};
  s.axes.roc.factors = {0.25, 0.75};
  s.axes.roc.placements = 1;
  s.axes.roc.epoch0_first_epoch_cycle = 555;
  s.validate();
  return s;
}

/// full_spec() plus a non-default response section, for the codec tests
/// that need every section: a defense sweep rejects it at validate().
ScenarioSpec full_spec_with_response() {
  ScenarioSpec s = full_spec();
  power::ResponseConfig resp;
  resp.kind = power::ResponseKind::kThrottle;
  resp.trigger = power::ResponseTrigger::kBoth;
  resp.sanction_epochs = 5;
  resp.recovery_threshold = 0.8;
  s.response = resp;
  return s;
}

TEST(ScenarioSpec, RoundTripIsExact) {
  const ScenarioSpec spec = full_spec_with_response();
  const json::Value j = spec.to_json();
  const ScenarioSpec back = ScenarioSpec::from_json(j);
  EXPECT_EQ(back, spec);
  // Text-level stability: dump -> parse -> dump is a fixed point.
  const std::string text = json::dump(j, 2);
  EXPECT_EQ(json::dump(json::parse(text), 2), text);
}

TEST(ScenarioSpec, RejectsUnknownKeysEverywhere) {
  const auto corrupt = [](const char* path, const char* key) {
    json::Value j = full_spec_with_response().to_json();
    json::Value* node = &j;
    if (path[0] != '\0') node = node->as_object().find(path);
    ASSERT_NE(node, nullptr) << path;
    node->as_object()[key] = json::Value(1);
    EXPECT_THROW((void)ScenarioSpec::from_json(j), std::runtime_error)
        << path << "." << key;
  };
  corrupt("", "victim_scale");      // top level (belongs under trojan)
  corrupt("system", "epochCycles"); // typo'd casing
  corrupt("trojan", "scale");
  corrupt("epochs", "cooldown");
  corrupt("axes", "band");          // singular typo of "bands"
  corrupt("detector", "threshold");
  corrupt("response", "duration");  // belongs nowhere (sanction_epochs)
  // Second homes of one quantity, removed: the chip is system.width x
  // height, the attacked cluster axes.placements, the HT budget
  // axes.max_hts, and the pool size is an execution option.
  corrupt("axes", "nodes");
  corrupt("axes", "cluster_hts");
  corrupt("axes", "placement_max_hts");
  corrupt("", "threads");

  // Nested one deeper: the adaptation block under trojan.
  json::Value j = full_spec().to_json();
  json::Value* trojan = j.as_object().find("trojan");
  ASSERT_NE(trojan, nullptr);
  json::Value* adaptation = trojan->as_object().find("adaptation");
  ASSERT_NE(adaptation, nullptr);
  adaptation->as_object()["aggressiveness"] = json::Value(1);
  EXPECT_THROW((void)ScenarioSpec::from_json(j), std::runtime_error);
}

TEST(ScenarioSpec, RejectsWrongSchemaVersion) {
  json::Value j = full_spec().to_json();
  j.as_object()["schema_version"] = json::Value(2);
  EXPECT_THROW((void)ScenarioSpec::from_json(j), std::runtime_error);
  j.as_object()["schema_version"] = json::Value(0);
  EXPECT_THROW((void)ScenarioSpec::from_json(j), std::runtime_error);
}

/// Walks E's `count` enumerators (pinned here, so an enumerator added
/// without a name fails) through the codec and back, checks the codec's
/// walk stops after them, and that a bad name is rejected with the name
/// and every valid choice in the message.
template <class E>
void expect_enum_codec(int count, std::string_view bad) {
  std::string choices;
  for (int i = 0; i < count; ++i) {
    const auto e = static_cast<E>(i);
    const std::string name = to_string(e);
    EXPECT_NE(name, "?") << i;
    EXPECT_EQ(enum_from_name<E>(name), e) << name;
    choices += (i == 0 ? "" : "|") + name;
  }
  EXPECT_STREQ(to_string(static_cast<E>(count)), "?");
  try {
    (void)enum_from_name<E>(bad);
    ADD_FAILURE() << "accepted " << bad;
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(std::string(bad)), std::string::npos) << what;
    EXPECT_NE(what.find("(" + choices + ")"), std::string::npos) << what;
  }
}

TEST(ScenarioSpec, EnumStringMapsAreCompleteAndInvertible) {
  expect_enum_codec<ScenarioKind>(12, "performance_change");
  expect_enum_codec<system::GmPlacement>(2, "middle");
  expect_enum_codec<power::DetectorKind>(2, "oracle");
  expect_enum_codec<ClusterSpec::At>(4, "edge");
  expect_enum_codec<power::BudgeterKind>(5, "fair");
  expect_enum_codec<power::ResponseKind>(3, "exile");
  expect_enum_codec<power::ResponseTrigger>(3, "medium");

  // Through the reader, the error also names the member.
  json::Value j = full_spec().to_json();
  j.as_object().find("system")->as_object()["budgeter"] = json::Value("fair");
  try {
    (void)ScenarioSpec::from_json(j);
    ADD_FAILURE() << "accepted budgeter \"fair\"";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("scenario.system: budgeter"), std::string::npos)
        << what;
    EXPECT_NE(what.find("uniform|greedy|proportional|dp|market"),
              std::string::npos)
        << what;
  }
}

TEST(ScenarioSpec, QuickOverlayMergesObjectsAndReplacesArrays) {
  const ScenarioSpec spec = full_spec();
  const ScenarioSpec quick = spec.with_quick();
  EXPECT_EQ(quick.epochs.measure, 2);   // patched
  EXPECT_EQ(quick.epochs.warmup, 1);    // sibling untouched
  EXPECT_EQ(quick.axes.bands, spec.axes.bands);
  EXPECT_TRUE(quick.quick.is_null());   // overlay consumed

  // Arrays replace wholesale.
  ScenarioSpec arr = spec;
  arr.quick = json::parse(R"({"axes": {"bands": [{"low": 0.5,
                                                  "high": 2.0}]}})");
  const ScenarioSpec arr_quick = arr.with_quick();
  ASSERT_EQ(arr_quick.axes.bands.size(), 1U);
  EXPECT_DOUBLE_EQ(arr_quick.axes.bands[0].low, 0.5);

  // A typo'd overlay key is rejected, not ignored.
  ScenarioSpec bad = spec;
  bad.quick = json::parse(R"({"epochs": {"measur": 2}})");
  EXPECT_THROW((void)bad.with_quick(), std::runtime_error);

  // No overlay = unchanged.
  ScenarioSpec none = spec;
  none.quick = json::Value();
  EXPECT_EQ(none.with_quick(), none);
}

TEST(ScenarioSpec, ApplyOverrideGrammar) {
  json::Value j = full_spec().to_json();
  apply_override(j, "trojan.victim_scale", "0.5");
  apply_override(j, "epochs.measure", "7");
  apply_override(j, "workload.mix", "mix-3");  // bare string
  apply_override(j, "axes.bands", R"([{"low": 0.4, "high": 2.5}])");
  const ScenarioSpec spec = ScenarioSpec::from_json(j);
  EXPECT_DOUBLE_EQ(spec.trojan.victim_scale, 0.5);
  EXPECT_EQ(spec.epochs.measure, 7);
  EXPECT_EQ(spec.workload.mix, "mix-3");
  ASSERT_EQ(spec.axes.bands.size(), 1U);
  EXPECT_DOUBLE_EQ(spec.axes.bands[0].high, 2.5);

  // Paths crossing a scalar are an error, not a silent overwrite.
  EXPECT_THROW(apply_override(j, "name.sub", "1"), std::runtime_error);
  EXPECT_THROW(apply_override(j, "a..b", "1"), std::runtime_error);
  // Unknown keys introduced by --set surface at parse time.
  apply_override(j, "trojan.scale", "0.5");
  EXPECT_THROW((void)ScenarioSpec::from_json(j), std::runtime_error);
}

TEST(ScenarioSpec, ValidateCatchesBadSpecs) {
  ScenarioSpec spec = full_spec();
  spec.trojan.victim_scale = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = full_spec();
  spec.axes.bands.clear();
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  // A defense sweep needs at least one placement, each of >= 1 Trojan.
  spec = full_spec();
  spec.axes.roc = RocSpec{};
  spec.axes.placements.clear();
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = full_spec();
  spec.axes.placements.front().hts = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = full_spec();
  spec.workload.mix = "mix-9";
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = full_spec();
  spec.axes.roc.placements = 99;  // exceeds axes.placements
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = full_spec();
  spec.axes.roc.placements = -1;  // used to drop the roc section silently
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  // A defense sweep only replays detectors: a response section would be
  // accepted and then dropped.
  spec = full_spec();
  spec.response = power::ResponseConfig{};
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = full_spec();
  spec.system.width = 1;  // below the 2x2 mesh floor
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  // Values that used to run: each must be rejected naming its field.
  const auto rejects = [](const ScenarioSpec& bad, const std::string& field) {
    try {
      bad.validate();
      ADD_FAILURE() << field << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  spec = full_spec();
  spec.system.width = 65536;  // 65536 x 65537 wrapped to 65536 nodes
  spec.system.height = 65537;
  rejects(spec, "width x height");
  spec = full_spec();
  spec.system.width = 128;  // 8192 nodes, past kMaxNodes
  spec.system.height = 64;
  rejects(spec, "width x height");
  spec = full_spec();
  spec.system.epoch_cycles = 4'000'000'000ULL;  // ran for minutes
  rejects(spec, "system.epoch_cycles");
  spec = full_spec();
  spec.system.epoch_cycles = 0;  // ran with q 1.0 and no infection
  rejects(spec, "system.epoch_cycles");
  spec = full_spec();  // an epoch no longer than its collect window
  spec.system.epoch_cycles =
      spec.system.to_system_config().resolved_collect_window();
  rejects(spec, "system.epoch_cycles");
  for (const double fraction : {-1.0, 0.0, 1.5}) {
    spec = full_spec();
    spec.system.budget_fraction = fraction;
    rejects(spec, "system.budget_fraction");
  }
  spec = full_spec();
  spec.workload.threads_per_app = -5;  // ran as auto
  rejects(spec, "workload.threads_per_app");

  // A ROC factor is a victim scale: one that rounds to 0% on the wire
  // ran as a Trojan that zeroes its victims.
  spec = scenario_or_throw("defense-roc");
  spec.axes.roc.factors = {0.35, 0.004};
  rejects(spec, "axes.roc.factors");
  // An inverted band on a kind that does not sweep bands still reached
  // --replay-trace, which flagged all 64 cores with it.
  spec = scenario_or_throw("defense-evaluation");
  spec.axes.bands = {{2.0, 1.0}};
  rejects(spec, "axes.bands");

  // A negative period used to run as the static arm, reported as -2.
  spec = scenario_or_throw("attack-comparison");
  spec.axes.toggle_periods = {0, -2};
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  // An NI starts at most one packet per cycle.
  spec = scenario_or_throw("attack-comparison");
  spec.axes.flood_rate = 2.0;
  rejects(spec, "axes.flood_rate");

  // The kinds that attack one cluster read exactly one placement.
  for (const char* kind :
       {"defense-evaluation", "attack-comparison", "budgeter-ablation"}) {
    spec = scenario_or_throw(kind);
    spec.axes.placements.clear();
    rejects(spec, "axes.placements");
    spec.axes.placements = {{ClusterSpec::At::kGm, 8},
                            {ClusterSpec::At::kCorner, 8}};
    rejects(spec, "axes.placements");
  }
}

TEST(ScenarioSpec, ValidateChecksTheQuickOverlay) {
  ScenarioSpec empty;
  empty.name = "bad";
  empty.kind = ScenarioKind::kDefenseSweep;
  EXPECT_THROW(empty.validate(), std::invalid_argument);  // no bands

  // A typo'd overlay section fails validate() itself, not only the
  // --quick run that applies it.
  ScenarioSpec typo = full_spec();
  typo.quick = json::parse(R"({"epoch": {"measure": 2}})");
  try {
    typo.validate();
    ADD_FAILURE() << "typo'd quick overlay accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("quick overlay"), std::string::npos) << what;
    EXPECT_NE(what.find("epoch"), std::string::npos) << what;
  }

  // So does an overlay that parses but leaves an invalid spec.
  ScenarioSpec range = full_spec();
  range.quick = json::parse(R"({"epochs": {"measure": 0}})");
  EXPECT_THROW(range.validate(), std::invalid_argument);
}

// Robustness property: every mutation of the closed-loop spec's JSON --
// unknown keys at each new nesting level, type confusion, out-of-range
// values, bad enum strings -- is rejected with a thrown std::exception.
// Parse-then-validate must never crash or silently accept.
TEST(ScenarioSpec, ResponseMutationCorpusIsCleanlyRejected) {
  const json::Value base =
      scenario_or_throw("defense-closed-loop").to_json();

  // Mutators navigate with dotted paths; a missing intermediate object is
  // created so sparse-emitted sections can still be corrupted.
  const auto mutate = [&](const char* path, json::Value v) {
    json::Value j = base;
    json::Value* node = &j;
    std::string key;
    for (const char* c = path;; ++c) {
      if (*c == '.' || *c == '\0') {
        if (*c == '\0') {
          node->as_object()[key] = std::move(v);
          return j;
        }
        json::Value* next = node->as_object().find(key);
        if (next == nullptr) {
          node->as_object()[key] = json::Value(json::Object{});
          next = node->as_object().find(key);
        }
        node = next;
        key.clear();
      } else {
        key += *c;
      }
    }
  };
  const auto rejected = [](const json::Value& j, const char* what) {
    try {
      const ScenarioSpec spec = ScenarioSpec::from_json(j);
      spec.validate();
      ADD_FAILURE() << "mutation accepted: " << what;
    } catch (const std::exception&) {
      // Clean rejection -- the property under test.
    }
  };

  // The un-mutated base must survive both steps (the corpus is live).
  EXPECT_NO_THROW(ScenarioSpec::from_json(base).validate());

  // Unknown keys at every new nesting level.
  rejected(mutate("response.duration", json::Value(3)), "response unknown");
  rejected(mutate("trojan.adaptation.aggressiveness", json::Value(2)),
           "adaptation unknown");
  rejected(mutate("axes.response", json::Value(json::Array{})),
           "axes singular typo");

  // Type confusion.
  rejected(mutate("response.kind", json::Value(5)), "kind as int");
  rejected(mutate("response.trigger", json::Value(json::Array{})),
           "trigger as array");
  rejected(mutate("response.sanction_epochs", json::Value("three")),
           "sanction_epochs as string");
  rejected(mutate("trojan.adaptation.alpha", json::Value("high")),
           "alpha as string");
  rejected(mutate("trojan.adaptation.enabled", json::Value(1)),
           "enabled as int");
  rejected(mutate("axes.responses", json::Value(3)), "responses as int");
  {
    json::Array mixed;
    mixed.push_back(json::Value("quarantine"));
    mixed.push_back(json::Value(7));
    rejected(mutate("axes.responses", json::Value(std::move(mixed))),
             "responses mixed-type array");
  }

  // Bad enum strings.
  rejected(mutate("response.kind", json::Value("exile")), "bad kind");
  rejected(mutate("response.trigger", json::Value("medium")), "bad trigger");

  // Integers that do not fit their member's type (from_json must throw,
  // not wrap: -5 cycles used to become ~1.8e19 and silently disarm the
  // Trojan, and 2^32 + 8 used to become an 8-wide mesh).
  rejected(mutate("system.first_epoch_cycle", json::Value(-5)),
           "negative first_epoch_cycle");
  rejected(mutate("system.width", json::Value(4294967304LL)),
           "width beyond int");
  rejected(mutate("axes.roc.epoch0_first_epoch_cycle", json::Value(-1)),
           "negative epoch0_first_epoch_cycle");

  // Out-of-range values (parse fine, validate must throw).
  rejected(mutate("response.sanction_epochs", json::Value(0)),
           "sanction_epochs 0");
  rejected(mutate("response.sanction_epochs", json::Value(-3)),
           "sanction_epochs negative");
  rejected(mutate("response.recovery_threshold", json::Value(0.0)),
           "recovery_threshold 0");
  rejected(mutate("response.recovery_threshold", json::Value(3.5)),
           "recovery_threshold 3.5");
  rejected(mutate("trojan.adaptation.alpha", json::Value(0.0)), "alpha 0");
  rejected(mutate("trojan.adaptation.alpha", json::Value(1.5)), "alpha 1.5");
  rejected(mutate("trojan.adaptation.backoff_ratio", json::Value(1.0)),
           "backoff_ratio 1");
  rejected(mutate("trojan.adaptation.max_on_epochs", json::Value(0)),
           "max_on_epochs 0");
  rejected(mutate("trojan.adaptation.hold_off_epochs", json::Value(0)),
           "hold_off_epochs 0");
  // Rival duty controllers: grant feedback AND a blind toggle.
  rejected(mutate("trojan.adaptation.enabled", json::Value(true)),
           "adaptation enabled under a toggle period");
  // An empty response axis on a closed-loop scenario has nothing to run.
  rejected(mutate("axes.responses", json::Value(json::Array{})),
           "responses empty");
}

TEST(ScenarioSpec, MeshForSizeCoversPaperPresetsOnly) {
  EXPECT_EQ(mesh_for_size(64), (std::pair<int, int>{8, 8}));
  EXPECT_EQ(mesh_for_size(128), (std::pair<int, int>{16, 8}));
  EXPECT_EQ(mesh_for_size(256), (std::pair<int, int>{16, 16}));
  EXPECT_EQ(mesh_for_size(512), (std::pair<int, int>{32, 16}));
  EXPECT_THROW((void)mesh_for_size(100), std::invalid_argument);
}

}  // namespace
}  // namespace htpb::scenario
