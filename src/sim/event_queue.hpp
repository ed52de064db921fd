// Deterministic discrete-event queue of serializable descriptors
// (sim/event_desc.hpp): events at equal timestamps pop in insertion
// (FIFO) order so simulations are bit-reproducible. The (when, seq) pair
// is a total order -- the tie-break is part of the public contract
// (tests/sim/event_queue_test.cpp asserts it), not an accident of heap
// layout. The queue only orders descriptors; the engine dispatches them.
//
// For checkpointing, pending() enumerates the queue in firing order; a
// snapshot stores the descriptors and a restore re-schedules them in
// that order, which assigns fresh monotone sequence numbers and
// therefore reproduces the exact firing order.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "sim/event_desc.hpp"

namespace htpb::sim {

class EventQueue {
 public:
  /// One pending event: firing time plus its descriptor.
  struct PendingEvent {
    Cycle when = 0;
    EventDesc desc;
  };

  void schedule(Cycle when, const EventDesc& desc);

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  [[nodiscard]] Cycle next_time() const noexcept {
    return heap_.empty() ? kCycleMax : heap_.front().when;
  }

  /// Removes and returns the earliest event. Precondition: !empty().
  [[nodiscard]] PendingEvent pop();

  void clear();

  /// Every pending event in firing order -- (when, seq) ascending.
  [[nodiscard]] std::vector<PendingEvent> pending() const;

 private:
  struct Event {
    Cycle when;
    std::uint64_t seq;
    EventDesc desc;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  /// Min-heap on (when, seq) via std::push_heap/pop_heap. A raw vector
  /// (rather than std::priority_queue) so pending() can enumerate it.
  std::vector<Event> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace htpb::sim
