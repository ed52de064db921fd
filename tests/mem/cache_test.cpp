#include "mem/cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <random>
#include <set>
#include <stdexcept>
#include <vector>

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

TEST(SetAssocCache, RejectsMoreSetsThanTheIndexHolds) {
  EXPECT_THROW(IntCache(IntCache::kMaxSets + 1, 1), std::invalid_argument);
  // The largest power of 2 the index holds: every set can be touched.
  constexpr std::size_t kSets = (IntCache::kMaxSets + 1) / 2;
  IntCache cache(kSets, 1);
  bool evicted = false;
  for (std::uint64_t a = 0; a < kSets; ++a) {
    cache.allocate(a, nullptr, &evicted).data = static_cast<int>(a);
  }
  EXPECT_EQ(cache.allocated_sets(), kSets);
  for (std::uint64_t a = 0; a < kSets; a += 4097) {
    ASSERT_NE(cache.peek(a), nullptr) << a;
    EXPECT_EQ(cache.peek(a)->data, static_cast<int>(a));
  }
}

// Every line held up front in one array: the layout the cache reproduces
// through its set index, and the reference it is checked against.
class DenseCache {
 public:
  using Line = IntCache::Line;

  DenseCache(std::size_t sets, int ways)
      : sets_(sets), ways_(static_cast<std::size_t>(ways)),
        lines_(sets * ways_) {}

  Line* find(std::uint64_t addr) {
    Line* line = match(addr);
    if (line != nullptr) line->lru = ++clock_;
    return line;
  }
  Line* match(std::uint64_t addr) {
    Line* set = set_of(addr);
    for (std::size_t w = 0; w < ways_; ++w) {
      if (set[w].valid && set[w].addr == addr) return &set[w];
    }
    return nullptr;
  }
  Line& allocate(std::uint64_t addr, Line* evicted, bool* did_evict,
                 const std::function<bool(const Line&)>& evictable) {
    *did_evict = false;
    touched_.insert(set_number(addr));
    if (Line* line = match(addr)) {
      line->lru = ++clock_;
      return *line;
    }
    Line* set = set_of(addr);
    Line* victim = nullptr;
    for (std::size_t w = 0; w < ways_ && victim == nullptr; ++w) {
      if (!set[w].valid) victim = &set[w];
    }
    if (victim == nullptr) {
      // The LRU way among those passing the filter, else among all ways.
      const auto lru_way = [&](bool filtered) {
        Line* best = nullptr;
        for (std::size_t w = 0; w < ways_; ++w) {
          if (filtered && !evictable(set[w])) continue;
          if (best == nullptr || set[w].lru < best->lru) best = &set[w];
        }
        return best;
      };
      victim = evictable ? lru_way(true) : nullptr;
      if (victim == nullptr) victim = lru_way(false);
      *evicted = *victim;
      *did_evict = true;
    }
    *victim = Line{};
    victim->addr = addr;
    victim->valid = true;
    victim->lru = ++clock_;
    return *victim;
  }
  bool invalidate(std::uint64_t addr) {
    Line* line = match(addr);
    if (line == nullptr) return false;
    *line = Line{};
    return true;
  }
  void clear() {
    for (Line& line : lines_) line = Line{};
    touched_.clear();
  }
  Line& line_at(std::size_t i) {
    touched_.insert(i / ways_);
    return lines_[i];
  }
  [[nodiscard]] const std::vector<Line>& lines() const { return lines_; }
  [[nodiscard]] std::size_t touched_sets() const { return touched_.size(); }
  [[nodiscard]] std::uint64_t lru_clock() const { return clock_; }
  [[nodiscard]] std::size_t occupancy() const {
    std::size_t n = 0;
    for (const Line& line : lines_) n += line.valid ? 1 : 0;
    return n;
  }

 private:
  [[nodiscard]] std::size_t set_number(std::uint64_t addr) const {
    return static_cast<std::size_t>(addr & (sets_ - 1));
  }
  Line* set_of(std::uint64_t addr) {
    return &lines_[set_number(addr) * ways_];
  }

  std::size_t sets_;
  std::size_t ways_;
  std::vector<Line> lines_;
  std::set<std::size_t> touched_;  // sets allocated into since clear()
  std::uint64_t clock_ = 0;
};

void expect_same_state(const IntCache& cache, const DenseCache& ref) {
  ASSERT_EQ(cache.capacity_lines(), ref.lines().size());
  for (std::size_t i = 0; i < ref.lines().size(); ++i) {
    const IntCache::Line& got = cache.line_at(i);
    const IntCache::Line& want = ref.lines()[i];
    EXPECT_EQ(got.valid, want.valid) << "slot " << i;
    EXPECT_EQ(got.addr, want.addr) << "slot " << i;
    EXPECT_EQ(got.lru, want.lru) << "slot " << i;
    EXPECT_EQ(got.data, want.data) << "slot " << i;
  }
  EXPECT_EQ(cache.lru_clock(), ref.lru_clock());
  EXPECT_EQ(cache.occupancy(), ref.occupancy());
  EXPECT_EQ(cache.allocated_sets(), ref.touched_sets());
}

// Seeded random operation sequences against the dense reference: victim
// choice, slot positions, LRU stamps and the touched-set count must agree
// after every operation.
TEST(SetAssocCache, MatchesDenseReferenceUnderRandomOps) {
  struct Geometry {
    std::size_t sets;
    int ways;
  };
  for (const Geometry g : {Geometry{16, 2}, Geometry{8, 4}, Geometry{1, 3},
                           Geometry{32, 1}}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(::testing::Message() << "sets " << g.sets << " ways "
                                        << g.ways << " seed " << seed);
      std::mt19937_64 rng(seed);
      const auto pick = [&rng](std::uint64_t n) { return rng() % n; };
      IntCache cache(g.sets, g.ways);
      DenseCache ref(g.sets, g.ways);
      const std::uint64_t addrs = cache.capacity_lines() * 3;
      for (int step = 0; step < 1500; ++step) {
        SCOPED_TRACE(::testing::Message() << "step " << step);
        const std::uint64_t addr = pick(addrs);
        const std::uint64_t op = pick(100);
        if (op < 35) {
          // Allocate, every other time behind a filter that protects the
          // lines whose address is a multiple of a random divisor.
          std::function<bool(const IntCache::Line&)> evictable;
          if (pick(2) == 0) {
            const std::uint64_t d = 1 + pick(3);
            evictable = [d](const IntCache::Line& l) { return l.addr % d != 0; };
          }
          IntCache::Line victim;
          DenseCache::Line ref_victim;
          bool did_evict = true;
          bool ref_did_evict = false;
          const int data = static_cast<int>(pick(1000));
          cache.allocate(addr, &victim, &did_evict, evictable).data = data;
          ref.allocate(addr, &ref_victim, &ref_did_evict, evictable).data =
              data;
          ASSERT_EQ(did_evict, ref_did_evict);
          if (did_evict) {
            EXPECT_EQ(victim.addr, ref_victim.addr);
            EXPECT_EQ(victim.valid, ref_victim.valid);
            EXPECT_EQ(victim.lru, ref_victim.lru);
            EXPECT_EQ(victim.data, ref_victim.data);
          }
        } else if (op < 55) {
          IntCache::Line* got = cache.find(addr);
          DenseCache::Line* want = ref.find(addr);
          ASSERT_EQ(got == nullptr, want == nullptr);
        } else if (op < 65) {
          const IntCache& view = cache;
          EXPECT_EQ(view.peek(addr) == nullptr, ref.match(addr) == nullptr);
        } else if (op < 80) {
          EXPECT_EQ(cache.invalidate(addr), ref.invalidate(addr));
        } else if (op < 82) {
          cache.clear();
          ref.clear();
        } else if (op < 92) {
          // A restore's write: a valid line in a random slot.
          const std::size_t slot = pick(cache.capacity_lines());
          IntCache::Line line;
          line.addr = slot / static_cast<std::size_t>(g.ways) +
                      g.sets * pick(3);
          line.valid = true;
          line.lru = pick(cache.lru_clock() + 1);
          line.data = static_cast<int>(pick(1000));
          cache.line_at(slot) = line;
          ref.line_at(slot) = line;
        } else {
          const std::size_t slot = pick(cache.capacity_lines() + 2);
          if (slot >= cache.capacity_lines()) {
            EXPECT_THROW((void)cache.line_at(slot), std::out_of_range);
          } else {
            const IntCache& view = cache;
            EXPECT_EQ(view.line_at(slot).addr, ref.lines()[slot].addr);
          }
        }
        expect_same_state(cache, ref);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace htpb::mem
