#include "sim/event_queue.hpp"

#include <algorithm>

namespace htpb::sim {

void EventQueue::schedule(Cycle when, const EventDesc& desc) {
  heap_.push_back(Event{when, next_seq_++, desc});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

EventQueue::PendingEvent EventQueue::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const PendingEvent ev{heap_.back().when, heap_.back().desc};
  heap_.pop_back();
  return ev;
}

void EventQueue::clear() {
  heap_.clear();
  next_seq_ = 0;
}

std::vector<EventQueue::PendingEvent> EventQueue::pending() const {
  std::vector<const Event*> ordered;
  ordered.reserve(heap_.size());
  for (const Event& ev : heap_) ordered.push_back(&ev);
  std::sort(ordered.begin(), ordered.end(),
            [](const Event* a, const Event* b) {
              if (a->when != b->when) return a->when < b->when;
              return a->seq < b->seq;
            });
  std::vector<PendingEvent> out;
  out.reserve(ordered.size());
  for (const Event* ev : ordered) out.push_back({ev->when, ev->desc});
  return out;
}

}  // namespace htpb::sim
