#include "common/bitset.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace htpb {
namespace {

TEST(DynamicBitset, SetTestClear) {
  DynamicBitset bs(130);
  EXPECT_EQ(bs.size(), 130U);
  EXPECT_FALSE(bs.any());
  bs.set(0);
  bs.set(63);
  bs.set(64);
  bs.set(129);
  EXPECT_TRUE(bs.test(0));
  EXPECT_TRUE(bs.test(63));
  EXPECT_TRUE(bs.test(64));
  EXPECT_TRUE(bs.test(129));
  EXPECT_FALSE(bs.test(1));
  EXPECT_EQ(bs.count(), 4U);
  bs.clear(63);
  EXPECT_FALSE(bs.test(63));
  EXPECT_EQ(bs.count(), 3U);
}

TEST(DynamicBitset, SetBitsAscending) {
  DynamicBitset bs(200);
  bs.set(5);
  bs.set(77);
  bs.set(199);
  const auto bits = bs.set_bits();
  ASSERT_EQ(bits.size(), 3U);
  EXPECT_EQ(bits[0], 5U);
  EXPECT_EQ(bits[1], 77U);
  EXPECT_EQ(bits[2], 199U);
}

TEST(DynamicBitset, ClearAll) {
  DynamicBitset bs(64);
  for (std::size_t i = 0; i < 64; i += 2) bs.set(i);
  EXPECT_EQ(bs.count(), 32U);
  bs.clear_all();
  EXPECT_EQ(bs.count(), 0U);
  EXPECT_FALSE(bs.any());
}

TEST(DynamicBitset, RetainIfVisitsAscendingAndClearsDropped) {
  DynamicBitset bs(130);
  for (const std::size_t i : {129U, 0U, 64U, 63U, 70U}) bs.set(i);
  std::vector<std::size_t> seen;
  bs.retain_if([&](std::size_t i) {
    seen.push_back(i);
    if (i == 64) bs.set(65);  // word already read: kept, visited next pass
    return i % 2 == 0;
  });
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 63, 64, 70, 129}));
  EXPECT_EQ(bs.set_bits(), (std::vector<std::uint32_t>{0, 64, 65, 70}));
  seen.clear();
  bs.retain_if([&](std::size_t i) {
    seen.push_back(i);
    return false;
  });
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 64, 65, 70}));
  EXPECT_FALSE(bs.any());
}

TEST(DynamicBitset, IdempotentSet) {
  DynamicBitset bs(10);
  bs.set(3);
  bs.set(3);
  EXPECT_EQ(bs.count(), 1U);
}

}  // namespace
}  // namespace htpb
