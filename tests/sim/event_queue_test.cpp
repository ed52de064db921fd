#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace htpb::sim {
namespace {

EventDesc tagged(std::uint64_t tag) {
  EventDesc d;
  d.kind = EventKind::kSystemEpochStart;
  d.a = tag;
  return d;
}

/// Pops every event and returns the tags (`a`) in pop order.
std::vector<std::uint64_t> drain(EventQueue& q) {
  std::vector<std::uint64_t> order;
  while (!q.empty()) order.push_back(q.pop().desc.a);
  return order;
}

TEST(EventQueue, EmptyByDefault) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0U);
  EXPECT_EQ(q.next_time(), kCycleMax);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.schedule(30, tagged(3));
  q.schedule(10, tagged(1));
  q.schedule(20, tagged(2));
  EXPECT_EQ(q.next_time(), 10U);
  EXPECT_EQ(drain(q), (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(EventQueue, FifoTieBreakAtSameTimestamp) {
  EventQueue q;
  for (std::uint64_t i = 0; i < 10; ++i) q.schedule(5, tagged(i));
  const auto order = drain(q);
  ASSERT_EQ(order.size(), 10U);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, PopReturnsTheWholeEvent) {
  EventQueue q;
  EventDesc d;
  d.kind = EventKind::kMemFetchDone;
  d.node = 7;
  d.a = 0xabc;
  d.b = 9;
  q.schedule(4, d);
  const EventQueue::PendingEvent ev = q.pop();
  EXPECT_EQ(ev.when, 4U);
  EXPECT_EQ(ev.desc, d);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PendingListsFiringOrderWithoutPopping) {
  EventQueue q;
  q.schedule(2, tagged(20));
  q.schedule(1, tagged(10));
  q.schedule(2, tagged(21));
  const auto pending = q.pending();
  ASSERT_EQ(pending.size(), 3U);
  EXPECT_EQ(pending[0].desc.a, 10U);
  EXPECT_EQ(pending[1].desc.a, 20U);
  EXPECT_EQ(pending[2].desc.a, 21U);
  EXPECT_EQ(q.size(), 3U);
}

TEST(EventQueue, ClearDropsEverything) {
  EventQueue q;
  q.schedule(1, tagged(1));
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kCycleMax);
}

}  // namespace
}  // namespace htpb::sim
