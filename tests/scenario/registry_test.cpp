// The registry contract: the expected scenario set, spec validity, exact
// JSON round trips for every registered spec (an acceptance criterion of
// the scenario API), and valid quick overlays.
#include "scenario/registry.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

namespace htpb::scenario {
namespace {

TEST(ScenarioRegistry, RegistersEveryPaperExperiment) {
  std::vector<std::string> names;
  for (const ScenarioSpec& spec : registry()) names.push_back(spec.name);
  const std::vector<std::string> expected = {
      "fig3",           "fig4",
      "fig5",           "table1",
      "table2",
      "secIIID-area-power", "secVC-placement",
      "defense-roc",    "defense-evaluation",
      "attack-comparison", "budgeter-ablation",
      "defense-closed-loop"};
  EXPECT_EQ(names, expected);
}

TEST(ScenarioRegistry, NamesAreUnique) {
  std::set<std::string> seen;
  for (const ScenarioSpec& spec : registry()) {
    EXPECT_TRUE(seen.insert(spec.name).second) << spec.name;
  }
}

// Two scenarios whose specs differ only in their labels run the same
// experiment twice (Figs. 5 and 6 are two readouts of one sweep, so they
// are one scenario). Full-size and quick variants are compared apart.
TEST(ScenarioRegistry, NoTwoScenariosRunTheSameExperiment) {
  const auto experiment = [](const ScenarioSpec& spec) {
    json::Value j = spec.to_json();
    for (const char* label :
         {"name", "kind", "title", "paper_ref", "expectation", "quick"}) {
      j.as_object()[label] = json::Value();
    }
    return json::dump(j);
  };
  const std::vector<ScenarioSpec>& specs = registry();
  for (std::size_t a = 0; a < specs.size(); ++a) {
    for (std::size_t b = a + 1; b < specs.size(); ++b) {
      const std::string pair = specs[a].name + " and " + specs[b].name;
      EXPECT_NE(experiment(specs[a]), experiment(specs[b])) << pair;
      EXPECT_NE(experiment(specs[a].with_quick()),
                experiment(specs[b].with_quick()))
          << pair << " (--quick)";
    }
  }
}

TEST(ScenarioRegistry, EverySpecValidates) {
  for (const ScenarioSpec& spec : registry()) {
    EXPECT_NO_THROW(spec.validate()) << spec.name;
    EXPECT_FALSE(spec.title.empty()) << spec.name;
    EXPECT_FALSE(spec.paper_ref.empty()) << spec.name;
  }
}

TEST(ScenarioRegistry, EverySpecRoundTripsThroughJsonExactly) {
  for (const ScenarioSpec& spec : registry()) {
    const json::Value j = spec.to_json();
    const ScenarioSpec back = ScenarioSpec::from_json(j);
    EXPECT_EQ(back, spec) << spec.name;
    // And through the text form too (what --scenario file.json reads).
    const ScenarioSpec from_text =
        ScenarioSpec::from_json(json::parse(json::dump(j, 2)));
    EXPECT_EQ(from_text, spec) << spec.name;
  }
}

TEST(ScenarioRegistry, QuickOverlaysApplyAndValidate) {
  for (const ScenarioSpec& spec : registry()) {
    ScenarioSpec quick;
    ASSERT_NO_THROW(quick = spec.with_quick()) << spec.name;
    EXPECT_NO_THROW(quick.validate()) << spec.name;
    if (!spec.quick.is_null()) {
      EXPECT_FALSE(quick == spec) << spec.name
                                  << ": quick overlay changed nothing";
    }
  }
}

// Fleet run dirs fingerprint exactly this text, so the spec JSON of every
// registry scenario (full and quick) and of a checked-in example spec is
// pinned byte for byte (FNV-1a-64 over the dumps). A change here changes
// every recorded fingerprint: make it on purpose, then re-pin.
TEST(ScenarioRegistry, SpecJsonTextIsPinned) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](const ScenarioSpec& spec) {
    for (const char c : json::dump(spec.to_json(), 2)) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001B3ULL;
    }
  };
  std::vector<ScenarioSpec> specs = registry();
  specs.push_back(load_spec_file(
      std::string(HTPB_REPO_ROOT) +
      "/examples/specs/quarantine-vs-adaptive.json"));
  for (const ScenarioSpec& spec : specs) {
    mix(spec);
    mix(spec.with_quick());
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(h));
  EXPECT_EQ(std::string(hex), "09f41f31d87d090c");
}

TEST(ScenarioRegistry, LookupByName) {
  ASSERT_NE(find_scenario("fig5"), nullptr);
  EXPECT_EQ(find_scenario("fig5")->kind, ScenarioKind::kAttackEffect);
  EXPECT_EQ(find_scenario("nope"), nullptr);
  EXPECT_NO_THROW((void)scenario_or_throw("defense-roc"));
  EXPECT_THROW((void)scenario_or_throw("nope"), std::invalid_argument);
}

}  // namespace
}  // namespace htpb::scenario
