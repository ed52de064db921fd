// Generic set-associative cache with LRU replacement, parameterized on the
// per-line metadata. Addresses are cache-line identifiers (the coherence
// unit); byte offsets never appear in the simulator.
//
// Each set's lines are allocated by the first `allocate` into it, as one
// block of `ways` lines. A 2-byte per-set index numbers the set's block
// (0 = untouched), so an untouched set costs 2 bytes where a pointer per
// set cost 8. A short run touches a few sets of each cache, so a Table I
// tile's 384 sets (L1 256, L2 128) cost 768 B of index at build, and a
// 512-core chip builds in 5.3 KB/tile rather than 7.5 KB/tile. Lookups on
// an untouched set miss without allocating, and because a new line takes
// the first invalid way, slot positions match a dense layout's exactly.
// Blocks never move once allocated, so a Line& stays valid across later
// allocations.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

namespace htpb::mem {

template <typename LineData>
class SetAssocCache {
 public:
  struct Line {
    std::uint64_t addr = 0;
    bool valid = false;
    std::uint64_t lru = 0;
    LineData data{};
  };
  using BlockId = std::uint16_t;

  /// The most sets the index can number: block numbers 1..65535 fit in
  /// its 2 bytes next to 0 (untouched), so every set can be touched.
  static constexpr std::size_t kMaxSets =
      std::numeric_limits<BlockId>::max();

  SetAssocCache(std::size_t sets, int ways) : ways_(ways) {
    if (sets == 0 || (sets & (sets - 1)) != 0) {
      throw std::invalid_argument("SetAssocCache: sets must be a power of 2");
    }
    if (sets > kMaxSets) {
      throw std::invalid_argument("SetAssocCache: more sets than the index holds");
    }
    if (ways <= 0) throw std::invalid_argument("SetAssocCache: ways must be > 0");
    index_.assign(sets, 0);
  }

  [[nodiscard]] std::size_t sets() const noexcept { return index_.size(); }
  [[nodiscard]] int ways() const noexcept { return ways_; }
  [[nodiscard]] std::size_t capacity_lines() const noexcept {
    return index_.size() * static_cast<std::size_t>(ways_);
  }
  /// Sets whose lines have been allocated.
  [[nodiscard]] std::size_t allocated_sets() const noexcept {
    return blocks_.size();
  }

  /// Finds a line and touches its LRU stamp. Returns nullptr on miss.
  [[nodiscard]] Line* find(std::uint64_t addr) {
    Line* line = match(set_lines(set_index(addr)), addr);
    if (line != nullptr) line->lru = ++clock_;
    return line;
  }

  /// Peeks without updating LRU (for statistics and assertions).
  [[nodiscard]] const Line* peek(std::uint64_t addr) const {
    return match(set_lines(set_index(addr)), addr);
  }

  /// Allocates a line for `addr`, evicting the LRU way if necessary.
  /// `evictable` filters victim candidates (e.g. skip lines with an active
  /// coherence transaction); if no candidate passes, the overall LRU way is
  /// evicted anyway. If an eviction happens, the victim is copied to
  /// `evicted` and true is returned through `did_evict`.
  Line& allocate(std::uint64_t addr, Line* evicted, bool* did_evict,
                 const std::function<bool(const Line&)>& evictable = {}) {
    if (did_evict) *did_evict = false;
    Line* set = materialise(set_index(addr));
    // Prefer an existing or invalid slot.
    if (Line* line = match(set, addr)) {
      line->lru = ++clock_;
      return *line;
    }
    for (int w = 0; w < ways_; ++w) {
      Line& line = set[w];
      if (!line.valid) {
        line = Line{};
        line.addr = addr;
        line.valid = true;
        line.lru = ++clock_;
        return line;
      }
    }
    // Evict: LRU among candidates passing the filter, else global LRU.
    Line* victim = nullptr;
    for (int pass = 0; pass < 2 && victim == nullptr; ++pass) {
      for (int w = 0; w < ways_; ++w) {
        Line& line = set[w];
        if (pass == 0 && evictable && !evictable(line)) continue;
        if (victim == nullptr || line.lru < victim->lru) victim = &line;
      }
    }
    if (evicted) *evicted = *victim;
    if (did_evict) *did_evict = true;
    *victim = Line{};
    victim->addr = addr;
    victim->valid = true;
    victim->lru = ++clock_;
    return *victim;
  }

  /// Drops a line if present. Returns true when something was removed.
  bool invalidate(std::uint64_t addr) {
    Line* line = match(set_lines(set_index(addr)), addr);
    if (line == nullptr) return false;
    *line = Line{};
    return true;
  }

  [[nodiscard]] std::size_t occupancy() const noexcept {
    std::size_t n = 0;
    for (const auto& block : blocks_) {
      for (int w = 0; w < ways_; ++w) {
        if (block[w].valid) ++n;
      }
    }
    return n;
  }

  /// Drops every line (and its set's storage). The LRU clock is kept; a
  /// restore sets it with `set_lru_clock`.
  void clear() noexcept {
    std::fill(index_.begin(), index_.end(), BlockId{0});
    blocks_.clear();
  }

  /// Checkpointing: raw slot access in storage order (slot i is way
  /// i % ways of set i / ways) plus the LRU clock. A restored cache must
  /// reproduce identical victim choices, so slot positions and lru stamps
  /// are captured verbatim. The const overload reads an unallocated set as
  /// invalid lines; the mutable one allocates the slot's set and throws
  /// std::out_of_range past capacity_lines() (a restored slot index).
  [[nodiscard]] const Line& line_at(std::size_t i) const {
    static const Line kEmpty{};
    const Line* set = set_lines(i / static_cast<std::size_t>(ways_));
    return set == nullptr ? kEmpty : set[i % static_cast<std::size_t>(ways_)];
  }
  [[nodiscard]] Line& line_at(std::size_t i) {
    if (i >= capacity_lines()) {
      throw std::out_of_range("SetAssocCache: slot out of range");
    }
    return materialise(i / static_cast<std::size_t>(ways_))
        [i % static_cast<std::size_t>(ways_)];
  }
  [[nodiscard]] std::uint64_t lru_clock() const noexcept { return clock_; }
  void set_lru_clock(std::uint64_t c) noexcept { clock_ = c; }

 private:
  [[nodiscard]] std::size_t set_index(std::uint64_t addr) const noexcept {
    return static_cast<std::size_t>(addr & (index_.size() - 1));
  }

  /// The lines of `set`, or nullptr while it is untouched.
  [[nodiscard]] Line* set_lines(std::size_t set) const noexcept {
    const BlockId b = index_[set];
    return b == 0 ? nullptr : blocks_[b - 1].get();
  }

  /// The valid way of `set` holding `addr`, or nullptr (also when the set
  /// is unallocated).
  [[nodiscard]] Line* match(Line* set, std::uint64_t addr) const noexcept {
    if (set == nullptr) return nullptr;
    for (int w = 0; w < ways_; ++w) {
      if (set[w].valid && set[w].addr == addr) return &set[w];
    }
    return nullptr;
  }

  [[nodiscard]] Line* materialise(std::size_t set) {
    BlockId& b = index_[set];
    if (b == 0) {
      blocks_.push_back(
          std::make_unique<Line[]>(static_cast<std::size_t>(ways_)));
      b = static_cast<BlockId>(blocks_.size());
    }
    return blocks_[b - 1].get();
  }

  int ways_;
  /// One entry per set: 0 while untouched, else its block's number in
  /// `blocks_` plus one.
  std::vector<BlockId> index_;
  /// The touched sets' lines, one block of `ways_` per set, in first-touch
  /// order.
  std::vector<std::unique_ptr<Line[]>> blocks_;
  std::uint64_t clock_ = 0;
};

}  // namespace htpb::mem
