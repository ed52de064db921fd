#include "sim/engine.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "common/snapshot.hpp"

namespace htpb::sim {

void Engine::step_one_cycle() {
  // Due events fire in (when, seq) order; one may schedule another for
  // this cycle, which fires in the same loop.
  while (events_.next_time() <= now_) dispatch(events_.pop().desc);
  for (Tickable* t : tickables_) t->tick(now_);
  ++now_;
}

void Engine::run_cycles(Cycle cycles) {
  for (Cycle i = 0; i < cycles; ++i) step_one_cycle();
}

void Engine::set_handler(EventKind kind, std::int32_t node, EventHandler fn) {
  handlers_[handler_key(kind, node)] = std::move(fn);
}

void Engine::dispatch(const EventDesc& desc) {
  auto it = handlers_.find(handler_key(desc.kind, desc.node));
  if (it == handlers_.end() && desc.node != -1) {
    it = handlers_.find(handler_key(desc.kind, -1));
  }
  if (it == handlers_.end()) {
    throw std::runtime_error(
        "Engine::dispatch: no handler for event kind " +
        std::to_string(static_cast<std::uint32_t>(desc.kind)) + " node " +
        std::to_string(desc.node));
  }
  it->second(desc);
}

json::Value Engine::save_state() const {
  json::Array events;
  for (const EventQueue::PendingEvent& ev : events_.pending()) {
    json::Array e;
    e.push_back(common::ju64(ev.when));
    e.push_back(json::Value(
        static_cast<long long>(static_cast<std::uint32_t>(ev.desc.kind))));
    e.push_back(json::Value(static_cast<long long>(ev.desc.node)));
    e.push_back(common::ju64(ev.desc.a));
    e.push_back(common::ju64(ev.desc.b));
    events.push_back(json::Value(std::move(e)));
  }
  json::Object o;
  o["now"] = common::ju64(now_);
  o["events"] = json::Value(std::move(events));
  return json::Value(std::move(o));
}

void Engine::load_state(const json::Value& v) {
  const json::Object& o = v.as_object();
  events_.clear();
  now_ = common::pu64(o.at("now"));
  for (const json::Value& ev : o.at("events").as_array()) {
    const json::Array& e = ev.as_array();
    EventDesc desc;
    desc.kind = static_cast<EventKind>(
        static_cast<std::uint32_t>(e.at(1).as_int()));
    desc.node = static_cast<std::int32_t>(e.at(2).as_int());
    desc.a = common::pu64(e.at(3));
    desc.b = common::pu64(e.at(4));
    schedule_desc_at(common::pu64(e.at(0)), desc);
  }
}

}  // namespace htpb::sim
