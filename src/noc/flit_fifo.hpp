// DynRingFifo: growable power-of-two ring for the NI inject/eject queues,
// whose occupancy is workload-dependent (a global-manager grant burst can
// enqueue one packet per node in a single cycle) and so has no fixed cap.
// (Router input VCs are rings over the router's own slot block; see
// router.hpp.) Contiguous slots; doubles and unwraps when full. FIFO semantics are identical to std::deque's push_back/pop_front,
// so swapping it in cannot change simulation results.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace htpb::noc {

template <typename T>
class DynRingFifo {
 public:
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  [[nodiscard]] T& front() noexcept {
    assert(!empty());
    return slots_[head_];
  }
  [[nodiscard]] const T& front() const noexcept {
    assert(!empty());
    return slots_[head_];
  }

  /// Element `i` counted from the front (checkpoint enumeration).
  [[nodiscard]] const T& at(std::size_t i) const noexcept {
    assert(i < size_);
    return slots_[(head_ + i) & mask()];
  }

  void push_back(T v) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & mask()] = std::move(v);
    ++size_;
  }

  /// Pops the front and resets the vacated slot, so a T holding shared
  /// resources (a PacketPtr) releases them now, not at wraparound.
  void pop_front() noexcept {
    assert(!empty());
    slots_[head_] = T{};
    head_ = (head_ + 1) & mask();
    --size_;
  }

  void clear() noexcept {
    while (!empty()) pop_front();
  }

 private:
  [[nodiscard]] std::size_t mask() const noexcept { return slots_.size() - 1; }

  void grow() {
    const std::size_t cap = slots_.empty() ? 8 : slots_.size() * 2;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(slots_[(head_ + i) & mask()]);
    }
    slots_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace htpb::noc
