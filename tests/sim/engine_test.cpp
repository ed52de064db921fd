#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace htpb::sim {
namespace {

class CountingTickable final : public Tickable {
 public:
  void tick(Cycle now) override {
    ++ticks;
    last = now;
  }
  int ticks = 0;
  Cycle last = 0;
};

EventDesc tagged(std::uint64_t tag) {
  EventDesc d;
  d.kind = EventKind::kSystemEpochStart;
  d.a = tag;
  return d;
}

/// (cycle, tag) of every dispatched kSystemEpochStart event.
using Fired = std::vector<std::pair<Cycle, std::uint64_t>>;

/// Registers a handler on `e` that appends to `fired`.
void record_into(Engine& e, Fired& fired) {
  e.set_handler(EventKind::kSystemEpochStart, -1,
                [&e, &fired](const EventDesc& d) {
                  fired.emplace_back(e.now(), d.a);
                });
}

TEST(Engine, StartsAtCycleZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0U);
}

TEST(Engine, TickablesTickedOncePerCycle) {
  Engine e;
  CountingTickable t;
  e.add_tickable(&t);
  e.run_cycles(10);
  EXPECT_EQ(t.ticks, 10);
  EXPECT_EQ(t.last, 9U);
  EXPECT_EQ(e.now(), 10U);
}

TEST(Engine, EventsRunBeforeTicksInSameCycle) {
  Engine e;
  std::vector<int> order;
  class Recorder final : public Tickable {
   public:
    explicit Recorder(std::vector<int>& o) : order_(o) {}
    void tick(Cycle) override { order_.push_back(2); }

   private:
    std::vector<int>& order_;
  };
  Recorder r(order);
  e.add_tickable(&r);
  e.set_handler(EventKind::kSystemEpochStart, -1,
                [&](const EventDesc&) { order.push_back(1); });
  e.schedule_desc_in(0, tagged(0));
  e.run_cycles(1);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Engine, ScheduleInDelaysCorrectly) {
  Engine e;
  Fired fired;
  record_into(e, fired);
  e.schedule_desc_in(5, tagged(1));
  e.run_cycles(10);
  EXPECT_EQ(fired, (Fired{{5, 1}}));
}

TEST(Engine, FifoTieBreakAtSameCycle) {
  Engine e;
  Fired fired;
  record_into(e, fired);
  for (std::uint64_t i = 0; i < 5; ++i) e.schedule_desc_at(3, tagged(i));
  e.run_cycles(4);
  EXPECT_EQ(fired, (Fired{{3, 0}, {3, 1}, {3, 2}, {3, 3}, {3, 4}}));
}

TEST(Engine, RunsDueEventsOnly) {
  Engine e;
  Fired fired;
  record_into(e, fired);
  e.schedule_desc_at(1, tagged(1));
  e.schedule_desc_at(2, tagged(2));
  e.schedule_desc_at(3, tagged(3));
  e.run_cycles(3);  // cycles 0, 1, 2
  EXPECT_EQ(fired, (Fired{{1, 1}, {2, 2}}));
  EXPECT_EQ(e.pending_events(), 1U);
}

TEST(Engine, EventsMayScheduleMoreEventsForTheSameCycle) {
  Engine e;
  Fired fired;
  e.set_handler(EventKind::kSystemEpochStart, -1, [&](const EventDesc& d) {
    fired.emplace_back(e.now(), d.a);
    if (d.a == 1) e.schedule_desc_in(0, tagged(2));  // same cycle, after
  });
  e.schedule_desc_at(1, tagged(1));
  e.run_cycles(2);
  EXPECT_EQ(fired, (Fired{{1, 1}, {1, 2}}));
}

TEST(Engine, ScheduleAtPastClampsToNow) {
  Engine e;
  Fired fired;
  record_into(e, fired);
  e.run_cycles(5);
  e.schedule_desc_at(2, tagged(1));
  e.run_cycles(2);
  EXPECT_EQ(fired, (Fired{{5, 1}}));
}

TEST(Engine, RunCyclesFiresEventsOfItsLastCycle) {
  Engine e;
  Fired fired;
  record_into(e, fired);
  e.schedule_desc_at(7, tagged(1));
  e.run_cycles(7);  // cycles 0..6
  EXPECT_TRUE(fired.empty());
  EXPECT_EQ(e.now(), 7U);
  e.run_cycles(1);  // cycle 7
  EXPECT_EQ(fired.size(), 1U);
  EXPECT_EQ(e.now(), 8U);
}

TEST(Engine, ChainedEventsAcrossCycles) {
  Engine e;
  std::vector<Cycle> fires;
  e.set_handler(EventKind::kSystemEpochStart, -1, [&](const EventDesc& d) {
    fires.push_back(e.now());
    if (fires.size() < 4) e.schedule_desc_in(3, d);
  });
  e.schedule_desc_in(1, tagged(0));
  e.run_cycles(20);
  EXPECT_EQ(fires, (std::vector<Cycle>{1, 4, 7, 10}));
}

TEST(Engine, ExactHandlerBeatsWildcardAndMissingOneThrows) {
  Engine e;
  std::vector<int> hits;
  e.set_handler(EventKind::kMemFetchDone, -1,
                [&](const EventDesc&) { hits.push_back(-1); });
  e.set_handler(EventKind::kMemFetchDone, 3,
                [&](const EventDesc&) { hits.push_back(3); });
  EventDesc d;
  d.kind = EventKind::kMemFetchDone;
  d.node = 3;
  e.dispatch(d);
  d.node = 4;
  e.dispatch(d);
  EXPECT_EQ(hits, (std::vector<int>{3, -1}));
  d.kind = EventKind::kNocLocalDeliver;
  EXPECT_THROW(e.dispatch(d), std::runtime_error);
}

TEST(Engine, SaveLoadKeepsClockAndFiringOrder) {
  Engine a;
  Fired fired_a;
  record_into(a, fired_a);
  a.run_cycles(2);
  a.schedule_desc_at(4, tagged(2));
  a.schedule_desc_at(3, tagged(1));
  a.schedule_desc_at(4, tagged(3));
  const json::Value saved = a.save_state();

  Engine b;
  Fired fired_b;
  record_into(b, fired_b);
  b.load_state(saved);
  EXPECT_EQ(b.now(), 2U);
  EXPECT_EQ(b.pending_events(), 3U);
  a.run_cycles(5);
  b.run_cycles(5);
  EXPECT_EQ(fired_a, (Fired{{3, 1}, {4, 2}, {4, 3}}));
  EXPECT_EQ(fired_b, fired_a);
}

TEST(Engine, MultipleTickablesTickInRegistrationOrder) {
  Engine e;
  std::vector<int> order;
  class Tagger final : public Tickable {
   public:
    Tagger(std::vector<int>& o, int tag) : order_(o), tag_(tag) {}
    void tick(Cycle) override { order_.push_back(tag_); }

   private:
    std::vector<int>& order_;
    int tag_;
  };
  Tagger a(order, 1);
  Tagger b(order, 2);
  e.add_tickable(&a);
  e.add_tickable(&b);
  e.run_cycles(2);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2}));
}

}  // namespace
}  // namespace htpb::sim
