#include "mem/cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

namespace htpb::mem {
namespace {

using IntCache = SetAssocCache<int>;

TEST(SetAssocCache, MissThenHit) {
  IntCache cache(16, 2);
  EXPECT_EQ(cache.find(0x100), nullptr);
  bool evicted = false;
  auto& line = cache.allocate(0x100, nullptr, &evicted);
  EXPECT_FALSE(evicted);
  line.data = 42;
  auto* found = cache.find(0x100);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->data, 42);
}

TEST(SetAssocCache, RejectsBadGeometry) {
  EXPECT_THROW(IntCache(15, 2), std::invalid_argument);  // not a power of 2
  EXPECT_THROW(IntCache(0, 2), std::invalid_argument);
  EXPECT_THROW(IntCache(16, 0), std::invalid_argument);
}

TEST(SetAssocCache, LruEviction) {
  IntCache cache(1, 2);  // fully associative pair
  bool evicted = false;
  cache.allocate(1, nullptr, &evicted).data = 1;
  cache.allocate(2, nullptr, &evicted).data = 2;
  (void)cache.find(1);  // touch 1: now 2 is LRU
  IntCache::Line victim;
  cache.allocate(3, &victim, &evicted);
  EXPECT_TRUE(evicted);
  EXPECT_EQ(victim.addr, 2U);
  EXPECT_NE(cache.find(1), nullptr);
  EXPECT_EQ(cache.find(2), nullptr);
  EXPECT_NE(cache.find(3), nullptr);
}

TEST(SetAssocCache, SetConflictsOnlyWithinSet) {
  IntCache cache(4, 1);  // direct mapped, 4 sets
  bool evicted = false;
  cache.allocate(0, nullptr, &evicted);   // set 0
  cache.allocate(1, nullptr, &evicted);   // set 1
  cache.allocate(4, nullptr, &evicted);   // set 0 again: evicts addr 0
  EXPECT_TRUE(evicted);
  EXPECT_EQ(cache.find(0), nullptr);
  EXPECT_NE(cache.find(1), nullptr);
  EXPECT_NE(cache.find(4), nullptr);
}

TEST(SetAssocCache, AllocateExistingLineIsIdempotent) {
  IntCache cache(4, 2);
  bool evicted = true;
  auto& first = cache.allocate(8, nullptr, &evicted);
  first.data = 7;
  auto& again = cache.allocate(8, nullptr, &evicted);
  EXPECT_FALSE(evicted);
  EXPECT_EQ(again.data, 7);
  EXPECT_EQ(cache.occupancy(), 1U);
}

TEST(SetAssocCache, EvictableFilterSkipsProtectedLines) {
  IntCache cache(1, 2);
  bool evicted = false;
  cache.allocate(1, nullptr, &evicted).data = 1;
  cache.allocate(2, nullptr, &evicted).data = 2;
  IntCache::Line victim;
  // Protect line 1 (the LRU): the filter must divert eviction to line 2.
  cache.allocate(3, &victim, &evicted,
                 [](const IntCache::Line& l) { return l.addr != 1; });
  EXPECT_TRUE(evicted);
  EXPECT_EQ(victim.addr, 2U);
  EXPECT_NE(cache.find(1), nullptr);
}

TEST(SetAssocCache, EvictableFilterFallsBackWhenAllProtected) {
  IntCache cache(1, 2);
  bool evicted = false;
  cache.allocate(1, nullptr, &evicted);
  cache.allocate(2, nullptr, &evicted);
  IntCache::Line victim;
  cache.allocate(3, &victim, &evicted,
                 [](const IntCache::Line&) { return false; });
  EXPECT_TRUE(evicted);  // global LRU evicted anyway
  EXPECT_EQ(victim.addr, 1U);
}

TEST(SetAssocCache, InvalidateRemovesLine) {
  IntCache cache(4, 2);
  bool evicted = false;
  cache.allocate(5, nullptr, &evicted);
  EXPECT_TRUE(cache.invalidate(5));
  EXPECT_EQ(cache.find(5), nullptr);
  EXPECT_FALSE(cache.invalidate(5));
  EXPECT_EQ(cache.occupancy(), 0U);
}

TEST(SetAssocCache, PeekDoesNotTouchLru) {
  IntCache cache(1, 2);
  bool evicted = false;
  cache.allocate(1, nullptr, &evicted);
  cache.allocate(2, nullptr, &evicted);
  (void)cache.peek(1);  // must NOT refresh line 1
  IntCache::Line victim;
  cache.allocate(3, &victim, &evicted);
  EXPECT_EQ(victim.addr, 1U);  // 1 was still LRU despite the peek
}

TEST(SetAssocCache, MissOnUntouchedSetAllocatesNothing) {
  IntCache cache(16, 4);
  EXPECT_EQ(cache.allocated_sets(), 0U);
  EXPECT_EQ(cache.find(3), nullptr);
  EXPECT_EQ(cache.peek(3), nullptr);
  EXPECT_FALSE(cache.invalidate(3));
  EXPECT_EQ(cache.occupancy(), 0U);
  EXPECT_EQ(cache.allocated_sets(), 0U);
  bool evicted = false;
  cache.allocate(3, nullptr, &evicted);
  EXPECT_EQ(cache.allocated_sets(), 1U);
  EXPECT_EQ(cache.find(4), nullptr);  // a different, untouched set
  EXPECT_EQ(cache.allocated_sets(), 1U);
}

TEST(SetAssocCache, ConstLineAtOnUnallocatedSetIsInvalid) {
  const IntCache cache(16, 4);
  for (std::size_t i = 0; i < cache.capacity_lines(); ++i) {
    EXPECT_FALSE(cache.line_at(i).valid) << i;
  }
  EXPECT_EQ(cache.allocated_sets(), 0U);
}

TEST(SetAssocCache, MutableLineAtRejectsSlotPastCapacity) {
  IntCache cache(4, 2);
  EXPECT_THROW((void)cache.line_at(8), std::out_of_range);
  EXPECT_EQ(cache.allocated_sets(), 0U);
}

TEST(SetAssocCache, ClearEmptiesTheCache) {
  IntCache cache(4, 2);
  bool evicted = false;
  for (std::uint64_t a = 0; a < 8; ++a) cache.allocate(a, nullptr, &evicted);
  EXPECT_EQ(cache.occupancy(), 8U);
  const std::uint64_t clock = cache.lru_clock();
  cache.clear();
  EXPECT_EQ(cache.occupancy(), 0U);
  EXPECT_EQ(cache.allocated_sets(), 0U);
  EXPECT_EQ(cache.find(5), nullptr);
  EXPECT_EQ(cache.lru_clock(), clock);  // a restore sets the clock itself
}

// Slot i is way i % ways of set i / ways, and a new line takes the first
// invalid way -- the layout a dense array of every line gave, which is what
// snapshot "slot" indices record.
TEST(SetAssocCache, SlotIndicesMatchTheDenseLayout) {
  IntCache cache(4, 4);
  bool evicted = false;
  // Set 1 holds addresses 1, 5, 9, 13 in ways 0..3 (slots 4..7).
  cache.allocate(1, nullptr, &evicted).data = 10;
  cache.allocate(5, nullptr, &evicted).data = 50;
  cache.allocate(9, nullptr, &evicted).data = 90;
  EXPECT_TRUE(cache.invalidate(5));  // frees way 1 (slot 5)
  cache.allocate(13, nullptr, &evicted).data = 130;  // takes way 1
  cache.allocate(17, nullptr, &evicted).data = 170;  // takes way 3
  EXPECT_FALSE(evicted);
  EXPECT_EQ(cache.allocated_sets(), 1U);
  const IntCache& view = cache;
  EXPECT_EQ(view.line_at(4).addr, 1U);
  EXPECT_EQ(view.line_at(5).addr, 13U);
  EXPECT_EQ(view.line_at(6).addr, 9U);
  EXPECT_EQ(view.line_at(7).addr, 17U);
  EXPECT_EQ(view.line_at(5).data, 130);
  for (std::size_t i = 4; i < 8; ++i) EXPECT_TRUE(view.line_at(i).valid) << i;
  EXPECT_FALSE(view.line_at(0).valid);
  EXPECT_FALSE(view.line_at(8).valid);

  // A restore through the mutable accessor lands in the same slots.
  IntCache restored(4, 4);
  for (std::size_t i = 0; i < view.capacity_lines(); ++i) {
    if (view.line_at(i).valid) restored.line_at(i) = view.line_at(i);
  }
  restored.set_lru_clock(cache.lru_clock());
  EXPECT_EQ(restored.allocated_sets(), 1U);
  IntCache::Line a;
  IntCache::Line b;
  cache.allocate(21, &a, &evicted);
  restored.allocate(21, &b, &evicted);
  EXPECT_TRUE(evicted);
  EXPECT_EQ(a.addr, b.addr);  // same LRU victim
  EXPECT_EQ(a.addr, 1U);
}

}  // namespace
}  // namespace htpb::mem
