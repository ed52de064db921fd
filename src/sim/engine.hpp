// Hybrid simulation engine: clocked components (routers, cores) register
// as Tickables and are ticked every cycle; sparse future work (memory
// latencies, epoch timers) goes through the event queue.
//
// Every event is a serializable descriptor (EventDesc): components
// register a handler per (kind, node) and schedule descriptors, and the
// engine dispatches each one as it comes due. So save_state() captures
// the clock and the pending descriptors, and load_state() restores them
// against the handlers currently registered.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/json.hpp"
#include "common/types.hpp"
#include "sim/event_queue.hpp"

namespace htpb::sim {

/// A component evaluated once per simulated cycle, in registration order.
/// Registration order is part of the deterministic contract: the mesh
/// registers itself as one tickable (its routers and network interfaces
/// tick inside it), then the system registers the cores, then
/// `AttackCampaign::simulate` adds a flooding campaign's `FloodingAttacker`s.
class Tickable {
 public:
  virtual ~Tickable() = default;
  virtual void tick(Cycle now) = 0;
};

/// Owns simulated time. Each cycle first drains the events due at the
/// current time, then ticks every registered component; nothing else
/// advances the clock, so a run is a pure function of the initial state
/// and the schedule (the determinism the sweep runner and the paper's
/// reproducibility claims rest on).
class Engine {
 public:
  using EventHandler = std::function<void(const EventDesc&)>;

  /// Current simulated cycle (the cycle being executed during a tick).
  [[nodiscard]] Cycle now() const noexcept { return now_; }

  /// Registers a clocked component. Not owned; caller keeps it alive for
  /// the engine's lifetime.
  void add_tickable(Tickable* t) { tickables_.push_back(t); }

  /// Registers the handler fired for descriptor events matching `kind`
  /// and `node` (node -1 registers a kind-wide wildcard, matched when no
  /// exact (kind, node) entry exists). Re-registering replaces.
  void set_handler(EventKind kind, std::int32_t node, EventHandler fn);

  /// Schedules `desc` to fire `delay` cycles from now. 0 means the next
  /// event drain: this cycle's when called from an event handler, the
  /// next cycle's when called from a tick. Requires a matching handler
  /// at *execution* time, not at scheduling time.
  void schedule_desc_in(Cycle delay, const EventDesc& desc) {
    schedule_desc_at(now_ + delay, desc);
  }
  /// Schedules `desc` at absolute cycle `when`; times already in the past
  /// are clamped to the current cycle (the event still fires, late).
  void schedule_desc_at(Cycle when, const EventDesc& desc) {
    events_.schedule(when < now_ ? now_ : when, desc);
  }

  /// Resolves and fires the handler for `desc`; throws std::runtime_error
  /// when none is registered (a wiring bug, not a data error).
  void dispatch(const EventDesc& desc);

  /// Advances the simulation by `cycles` cycles. Each cycle: run all events
  /// due at the current time, then tick every registered component.
  void run_cycles(Cycle cycles);

  /// Events scheduled but not yet executed (observability / test hook).
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return events_.size();
  }

  /// {"now": u64-string, "events": [[when, kind, node, a, b], ...]} with
  /// events in firing order.
  [[nodiscard]] json::Value save_state() const;

  /// Restores the clock and re-schedules the saved descriptor events (in
  /// saved order, so the same-cycle FIFO tie-break is preserved) against
  /// the currently registered handlers. Tickables and handlers are wiring
  /// and are untouched.
  void load_state(const json::Value& v);

 private:
  void step_one_cycle();

  [[nodiscard]] static std::uint64_t handler_key(EventKind kind,
                                                 std::int32_t node) noexcept {
    return (static_cast<std::uint64_t>(kind) << 32) |
           static_cast<std::uint32_t>(node);
  }

  Cycle now_ = 0;
  EventQueue events_;
  std::vector<Tickable*> tickables_;  // snapshot-exempt: components re-register on construction
  std::map<std::uint64_t, EventHandler> handlers_;  // snapshot-exempt: callback wiring, re-installed by construction
};

}  // namespace htpb::sim
