#include "cpu/core_model.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace htpb::cpu {
namespace {

struct CoreFixture {
  FrequencyTable freqs;
  CoreModel core{7, 3, IpcModel(0.5, 0.002), &freqs, 1234};
};

TEST(CoreModel, Identity) {
  CoreFixture f;
  EXPECT_EQ(f.core.node(), 7U);
  EXPECT_EQ(f.core.app(), 3U);
}

TEST(CoreModel, RetiresInstructionsAtThroughput) {
  CoreFixture f;
  f.core.set_level(f.freqs.max_level());
  const double expected_per_ns = f.core.current_throughput();
  for (int i = 0; i < 1000; ++i) f.core.tick(static_cast<Cycle>(i));
  EXPECT_NEAR(f.core.instructions_retired(), expected_per_ns * 1000.0, 1e-6);
}

TEST(CoreModel, HigherLevelRetiresFaster) {
  CoreFixture lo;
  CoreFixture hi;
  lo.core.set_level(0);
  hi.core.set_level(7);
  for (int i = 0; i < 1000; ++i) {
    lo.core.tick(static_cast<Cycle>(i));
    hi.core.tick(static_cast<Cycle>(i));
  }
  EXPECT_GT(hi.core.instructions_retired(),
            2.0 * lo.core.instructions_retired());
}

TEST(CoreModel, DutyCyclingThrottlesRetirement) {
  CoreFixture full;
  CoreFixture half;
  full.core.set_level(0);
  half.core.set_level(0);
  half.core.set_duty(0.5);
  for (int i = 0; i < 1000; ++i) {
    full.core.tick(static_cast<Cycle>(i));
    half.core.tick(static_cast<Cycle>(i));
  }
  EXPECT_NEAR(half.core.instructions_retired(),
              0.5 * full.core.instructions_retired(), 1e-6);
}

TEST(CoreModel, DutyClampedToSaneRange) {
  CoreFixture f;
  f.core.set_duty(5.0);
  EXPECT_DOUBLE_EQ(f.core.duty(), 1.0);
  f.core.set_duty(-1.0);
  EXPECT_DOUBLE_EQ(f.core.duty(), 0.05);
}

TEST(CoreModel, MemoryAccessesFollowConfiguredRate) {
  CoreFixture f;
  int accesses = 0;
  f.core.set_mem_access_fn([&](std::uint64_t, bool) { ++accesses; });
  f.core.set_address_stream(0, 4096, 1 << 20, 512, 0.1, 0.2,
                            /*apki=*/10.0);
  f.core.set_level(f.freqs.max_level());
  for (int i = 0; i < 20000; ++i) f.core.tick(static_cast<Cycle>(i));
  const double instr = f.core.instructions_retired();
  const double expected = instr * 10.0 / 1000.0;
  EXPECT_NEAR(accesses, expected, expected * 0.02 + 2.0);
  EXPECT_EQ(f.core.accesses_issued(), static_cast<std::uint64_t>(accesses));
}

TEST(CoreModel, AddressStreamStaysInConfiguredRegions) {
  CoreFixture f;
  constexpr std::uint64_t kPrivBase = 1ULL << 30;
  constexpr std::uint64_t kPrivLines = 1000;
  constexpr std::uint64_t kSharedBase = 1ULL << 40;
  constexpr std::uint64_t kSharedLines = 100;
  std::vector<std::uint64_t> addrs;
  f.core.set_mem_access_fn(
      [&](std::uint64_t a, bool) { addrs.push_back(a); });
  f.core.set_address_stream(kPrivBase, kPrivLines, kSharedBase, kSharedLines,
                            0.3, 0.2, 20.0);
  f.core.set_level(7);
  for (int i = 0; i < 30000; ++i) f.core.tick(static_cast<Cycle>(i));
  ASSERT_GT(addrs.size(), 100U);
  int shared = 0;
  for (const auto a : addrs) {
    const bool in_priv = a >= kPrivBase && a < kPrivBase + kPrivLines;
    const bool in_shared = a >= kSharedBase && a < kSharedBase + kSharedLines;
    EXPECT_TRUE(in_priv || in_shared) << "address outside both regions";
    if (in_shared) ++shared;
  }
  const double shared_frac = static_cast<double>(shared) / addrs.size();
  EXPECT_NEAR(shared_frac, 0.3, 0.05);
}

TEST(CoreModel, WriteFractionRespected) {
  CoreFixture f;
  int writes = 0;
  int total = 0;
  f.core.set_mem_access_fn([&](std::uint64_t, bool w) {
    ++total;
    if (w) ++writes;
  });
  f.core.set_address_stream(0, 1024, 1 << 20, 64, 0.0, 0.4, 20.0);
  f.core.set_level(7);
  for (int i = 0; i < 30000; ++i) f.core.tick(static_cast<Cycle>(i));
  ASSERT_GT(total, 500);
  EXPECT_NEAR(static_cast<double>(writes) / total, 0.4, 0.05);
}

TEST(CoreModel, NoTrafficWithoutCallback) {
  CoreFixture f;
  f.core.set_address_stream(0, 1024, 0, 64, 0.1, 0.2, 50.0);
  for (int i = 0; i < 1000; ++i) f.core.tick(static_cast<Cycle>(i));
  EXPECT_EQ(f.core.accesses_issued(), 0U);
}

TEST(CoreModel, ResetInstructionCount) {
  CoreFixture f;
  for (int i = 0; i < 100; ++i) f.core.tick(static_cast<Cycle>(i));
  EXPECT_GT(f.core.instructions_retired(), 0.0);
  f.core.reset_instruction_count();
  EXPECT_DOUBLE_EQ(f.core.instructions_retired(), 0.0);
}

// The core caches its per-cycle rates; this replays every input change
// against a reference that re-derives the rates each cycle, the way the
// per-cycle formula of paper Def. 1 reads, and demands bit-exact counts.
TEST(CoreModel, CachedRateTracksEveryInput) {
  CoreFixture f;
  double apki = 10.0;
  double ref_instr = 0.0;
  double ref_acc = 0.0;
  std::uint64_t ref_accesses = 0;
  const auto run = [&](int cycles) {
    for (int i = 0; i < cycles; ++i) {
      const double rate = f.core.duty() * f.core.ipc_model().throughput(
                                              f.freqs.ghz(f.core.level()));
      ref_instr += rate;
      ref_acc += rate * apki / 1000.0;
      while (ref_acc >= 1.0) {
        ref_acc -= 1.0;
        ++ref_accesses;
      }
      f.core.tick(static_cast<Cycle>(i));
    }
    EXPECT_EQ(f.core.instructions_retired(), ref_instr);
    EXPECT_EQ(f.core.accesses_issued(), ref_accesses);
  };

  // The callback goes in last, so its setter alone enables the accesses.
  f.core.set_address_stream(0, 1024, 1 << 20, 64, 0.1, 0.2, apki);
  f.core.set_mem_access_fn([](std::uint64_t, bool) {});
  run(2000);
  const json::Value saved = f.core.save_state();
  const double saved_instr = ref_instr;
  const double saved_acc = ref_acc;
  const std::uint64_t saved_accesses = ref_accesses;

  f.core.set_level(7);
  run(2000);
  f.core.set_duty(0.4);
  run(2000);
  f.core.observe_latency(300.0);
  run(2000);
  f.core.update_mpi(0.05);
  run(2000);
  apki = 25.0;
  f.core.set_address_stream(0, 1024, 1 << 20, 64, 0.1, 0.2, apki);
  run(2000);

  // Back to the first batch's level, duty, mpi and latency.
  apki = 10.0;
  f.core.set_address_stream(0, 1024, 1 << 20, 64, 0.1, 0.2, apki);
  f.core.set_level(3);
  f.core.load_state(saved);
  ASSERT_EQ(f.core.level(), 0);
  ref_instr = saved_instr;
  ref_acc = saved_acc;
  ref_accesses = saved_accesses;
  run(2000);
  EXPECT_GT(f.core.accesses_issued(), 0U);
}

}  // namespace
}  // namespace htpb::cpu
