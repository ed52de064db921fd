// Field-list drift guard. For every struct with a field list, each listed
// member is moved off its default alone and pushed through its codec:
//  - spec sections (scenario/spec_codec.hpp): the member's key must be
//    emitted and the round trip must give the struct back;
//  - snapshot records (common/snapshot.hpp): the change must reach the
//    JSON and survive a save -> dump -> parse -> load round trip.
// Unlike the registry and full_spec() round trips, this reaches every
// member, including the axis fields no registered scenario sets.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <type_traits>

#include "common/snapshot.hpp"
#include "mem/l1_cache.hpp"
#include "mem/l2_bank.hpp"
#include "noc/network.hpp"
#include "noc/packet.hpp"
#include "noc/router.hpp"
#include "power/global_manager.hpp"
#include "scenario/spec_codec.hpp"

namespace htpb {
namespace {

using common::kIsOptional;
using common::kIsVector;

/// Moves `v` off its current value. A nested struct changes its first
/// listed member; containers gain one default element.
template <class T>
void perturb(T& v) {
  if constexpr (common::HasFields<T>) {
    bool done = false;
    T::fields(v, [&done](const char* /*key*/, auto& field, auto... /*mark*/) {
      if (!done) perturb(field);
      done = true;
    });
  } else if constexpr (kIsOptional<T>) {
    v.emplace();
  } else if constexpr (kIsVector<T>) {
    v.emplace_back();
  } else if constexpr (std::is_same_v<T, json::Value>) {
    v = json::Value(json::Object{});
  } else if constexpr (std::is_same_v<T, RunningStat>) {
    v.add(1.5);
  } else if constexpr (std::is_enum_v<T>) {
    v = static_cast<T>(static_cast<int>(v) == 0 ? 1 : 0);
  } else if constexpr (std::is_same_v<T, bool>) {
    v = !v;
  } else if constexpr (std::is_same_v<T, std::string>) {
    v += "x";
  } else {
    v += 1;
  }
}

template <class S>
std::size_t field_count() {
  std::size_t n = 0;
  S s{};
  S::fields(s, [&n](auto&&... /*unused*/) { ++n; });
  return n;
}

/// S{} with only its `index`-th listed member perturbed; `key` receives
/// that member's JSON key.
template <class S>
S with_field_changed(std::size_t index, std::string& key) {
  S s{};
  std::size_t i = 0;
  S::fields(s, [&](const char* k, auto& field, auto... /*mark*/) {
    if (i++ == index) {
      perturb(field);
      key = k;
    }
  });
  return s;
}

template <class S>
void expect_spec_fields_round_trip(const char* name) {
  ASSERT_GT(field_count<S>(), 0U) << name;
  for (std::size_t i = 0; i < field_count<S>(); ++i) {
    std::string key;
    const S s = with_field_changed<S>(i, key);
    const json::Value j = scenario::write_spec(s, name);
    EXPECT_TRUE(j.as_object().contains(key)) << name << "." << key;
    S back{};
    scenario::read_spec(json::parse(json::dump(j)), name, back);
    EXPECT_TRUE(back == s) << name << "." << key;
  }
}

template <class S>
void expect_snapshot_fields_round_trip(const char* name) {
  ASSERT_GT(field_count<S>(), 0U) << name;
  const std::string defaults = json::dump(common::to_snapshot(S{}));
  for (std::size_t i = 0; i < field_count<S>(); ++i) {
    std::string key;
    const S s = with_field_changed<S>(i, key);
    const std::string text = json::dump(common::to_snapshot(s));
    EXPECT_NE(text, defaults) << name << "." << key;
    S back{};
    common::from_snapshot(json::parse(text), back);
    EXPECT_EQ(json::dump(common::to_snapshot(back)), text)
        << name << "." << key;
  }
}

TEST(FieldLists, EverySpecMemberIsEmittedAndRoundTrips) {
  using namespace scenario;
  expect_spec_fields_round_trip<SystemSpec>("system");
  expect_spec_fields_round_trip<WorkloadSpec>("workload");
  expect_spec_fields_round_trip<core::TrojanAdaptation>("adaptation");
  expect_spec_fields_round_trip<TrojanSpec>("trojan");
  expect_spec_fields_round_trip<EpochSpec>("epochs");
  expect_spec_fields_round_trip<power::DetectorConfig>("detector");
  expect_spec_fields_round_trip<power::ResponseConfig>("response");
  expect_spec_fields_round_trip<BandSpec>("band");
  expect_spec_fields_round_trip<InfectionArm>("arm");
  expect_spec_fields_round_trip<ClusterSpec>("cluster");
  expect_spec_fields_round_trip<RocSpec>("roc");
  expect_spec_fields_round_trip<AxesSpec>("axes");
  expect_spec_fields_round_trip<ScenarioSpec>("scenario");
}

TEST(FieldLists, EverySnapshotMemberRoundTrips) {
  expect_snapshot_fields_round_trip<RunningStat::Raw>("stat");
  expect_snapshot_fields_round_trip<noc::Packet>("packet");
  expect_snapshot_fields_round_trip<noc::RouterStats>("router_stats");
  expect_snapshot_fields_round_trip<noc::NiStats>("ni_stats");
  expect_snapshot_fields_round_trip<noc::NetworkStats>("network_stats");
  expect_snapshot_fields_round_trip<mem::L1Stats>("l1_stats");
  expect_snapshot_fields_round_trip<mem::L2Stats>("l2_stats");
  expect_snapshot_fields_round_trip<mem::L2Bank::Request>("l2_request");
  expect_snapshot_fields_round_trip<power::EpochRecord>("epoch_record");
}

// A u64 spec member past the JSON int64 range is an error on write, not a
// silently negative number in the file.
TEST(FieldLists, SpecWriteRejectsU64BeyondInt64) {
  scenario::SystemSpec s;
  s.seed = 1ULL << 63;
  EXPECT_THROW((void)scenario::write_spec(s, "system"), std::invalid_argument);
}

}  // namespace
}  // namespace htpb
