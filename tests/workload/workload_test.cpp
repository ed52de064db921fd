#include <gtest/gtest.h>

#include <set>

#include "workload/application.hpp"
#include "workload/benchmark_profile.hpp"

namespace htpb::workload {
namespace {

TEST(BenchmarkTable, ContainsAllTableTwoBenchmarks) {
  // Table II: 9 PARSEC + 2 SPLASH-2 benchmarks.
  const auto table = benchmark_table();
  EXPECT_EQ(table.size(), 11U);
  int parsec = 0;
  int splash = 0;
  for (const auto& b : table) {
    if (b.suite == "PARSEC") ++parsec;
    if (b.suite == "SPLASH-2") ++splash;
  }
  EXPECT_EQ(parsec, 9);
  EXPECT_EQ(splash, 2);
  for (const char* name :
       {"streamcluster", "swaptions", "ferret", "fluidanimate",
        "blackscholes", "freqmine", "dedup", "canneal", "vips", "barnes",
        "raytrace"}) {
    EXPECT_EQ(benchmark(name).name, name);
  }
}

TEST(BenchmarkTable, ParametersSane) {
  for (const auto& b : benchmark_table()) {
    EXPECT_GT(b.cpi_base, 0.0) << b.name;
    EXPECT_GT(b.apki, 0.0) << b.name;
    EXPECT_GT(b.working_set_lines, 0U) << b.name;
    EXPECT_GE(b.shared_fraction, 0.0) << b.name;
    EXPECT_LE(b.shared_fraction, 1.0) << b.name;
    EXPECT_GE(b.write_fraction, 0.0) << b.name;
    EXPECT_LE(b.write_fraction, 1.0) << b.name;
  }
}

TEST(BenchmarkTable, ComputeVsMemoryBoundSpread) {
  // The attack analysis relies on a sensitivity spread: blackscholes must
  // be far more compute-bound than canneal.
  const auto& bs = benchmark("blackscholes");
  const auto& cn = benchmark("canneal");
  EXPECT_LT(bs.apki, cn.apki / 4.0);
  EXPECT_LT(bs.working_set_lines, cn.working_set_lines / 8);
}

TEST(BenchmarkTable, UnknownNameThrows) {
  EXPECT_THROW((void)benchmark("doom"), std::out_of_range);
}

TEST(StandardMixes, MatchesTableThree) {
  const auto& mixes = standard_mixes();
  ASSERT_EQ(mixes.size(), 4U);
  EXPECT_EQ(mixes[0].name, "mix-1");
  EXPECT_EQ(mixes[0].attackers, (std::vector<std::string>{"barnes", "canneal"}));
  EXPECT_EQ(mixes[0].victims,
            (std::vector<std::string>{"blackscholes", "raytrace"}));
  EXPECT_EQ(mixes[1].attackers,
            (std::vector<std::string>{"freqmine", "swaptions"}));
  EXPECT_EQ(mixes[1].victims, (std::vector<std::string>{"raytrace", "vips"}));
  EXPECT_EQ(mixes[2].attackers, (std::vector<std::string>{"canneal"}));
  EXPECT_EQ(mixes[2].victims,
            (std::vector<std::string>{"barnes", "vips", "dedup"}));
  EXPECT_EQ(mixes[3].attackers,
            (std::vector<std::string>{"barnes", "streamcluster", "freqmine"}));
  EXPECT_EQ(mixes[3].victims, (std::vector<std::string>{"raytrace"}));
  // Paper: attacker/victim counts are 1..3 per side, 4 apps total.
  for (const auto& mix : mixes) {
    EXPECT_EQ(mix.app_count(), 4);
    EXPECT_GE(mix.attackers.size(), 1U);
    EXPECT_LE(mix.attackers.size(), 3U);
  }
}

TEST(InstantiateMix, RolesAndIdsAssigned) {
  const auto apps = instantiate_mix(standard_mixes()[0], 16);
  ASSERT_EQ(apps.size(), 4U);
  EXPECT_TRUE(apps[0].is_attacker());
  EXPECT_TRUE(apps[1].is_attacker());
  EXPECT_FALSE(apps[2].is_attacker());
  EXPECT_FALSE(apps[3].is_attacker());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    EXPECT_EQ(apps[i].id, i);
    EXPECT_EQ(apps[i].threads, 16);
  }
}

TEST(InstantiateMix, RejectsNonPositiveThreads) {
  EXPECT_THROW((void)instantiate_mix(standard_mixes()[0], 0),
               std::invalid_argument);
}

TEST(MapRoundRobin, InterleavesAcrossDie) {
  auto apps = instantiate_mix(standard_mixes()[0], 16);
  map_threads_round_robin(apps, 64);
  std::set<NodeId> used;
  for (const auto& app : apps) {
    ASSERT_EQ(app.cores.size(), 16U);
    for (const NodeId c : app.cores) {
      EXPECT_TRUE(used.insert(c).second) << "core assigned twice";
    }
  }
  EXPECT_EQ(used.size(), 64U);
  // Interleaving: app 0 holds nodes 0, 4, 8, ...
  EXPECT_EQ(apps[0].cores[0], 0U);
  EXPECT_EQ(apps[1].cores[0], 1U);
  EXPECT_EQ(apps[0].cores[1], 4U);
}

TEST(MapThreads, TooManyThreadsThrow) {
  auto apps = instantiate_mix(standard_mixes()[0], 32);  // 128 threads
  EXPECT_THROW(map_threads_round_robin(apps, 64), std::invalid_argument);
}

}  // namespace
}  // namespace htpb::workload
