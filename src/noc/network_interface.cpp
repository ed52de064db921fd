#include "noc/network_interface.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/snapshot.hpp"

namespace htpb::noc {

NetworkInterface::NetworkInterface(NodeId id, const NocConfig& cfg)
    : id_(id), cfg_(cfg),
      credits_(static_cast<std::size_t>(cfg.vcs), cfg.vc_depth) {}

void NetworkInterface::enqueue(PacketPtr pkt) {
  const int cls = vc_class_of(pkt->type);
  auto& state = classes_[cls];
  state.queue.push_back(std::move(pkt));
  const std::size_t depth = pending_injections();
  stats_.inject_queue_peak = std::max<std::uint64_t>(stats_.inject_queue_peak, depth);
}

std::size_t NetworkInterface::pending_injections() const noexcept {
  std::size_t n = classes_[0].queue.size() + classes_[1].queue.size();
  for (const auto& cls : classes_) {
    if (!cls.flits.empty()) ++n;
  }
  return n;
}

bool NetworkInterface::try_inject_class(int cls, Flit& out) {
  ClassState& state = classes_[cls];
  if (state.flits.empty()) {
    if (state.queue.empty()) return false;
    // Start a new packet: pick a VC of this class round-robin. The NI may
    // keep one packet in flight per class; flits of one packet always use
    // one VC (wormhole).
    const int base = cfg_.class_base(cls);
    const int span = cfg_.vcs_per_class();
    state.vc = base + state.rr_vc % span;
    state.rr_vc = (state.rr_vc + 1) % span;
    make_flits_into(state.queue.front(), state.flits);
    state.queue.pop_front();
    state.cursor = 0;
    for (auto& f : state.flits) f.vc = static_cast<std::int8_t>(state.vc);
  }
  if (credits_[static_cast<std::size_t>(state.vc)] <= 0) return false;
  out = std::move(state.flits[state.cursor]);
  --credits_[static_cast<std::size_t>(state.vc)];
  ++state.cursor;
  ++stats_.flits_injected;
  if (state.cursor == state.flits.size()) {
    ++stats_.packets_injected;
    state.flits.clear();
    state.cursor = 0;
    state.vc = -1;
  }
  return true;
}

bool NetworkInterface::tick_inject(Cycle /*now*/, Flit& out) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    const int cls = (rr_class_ + attempt) % 2;
    if (try_inject_class(cls, out)) {
      rr_class_ = (cls + 1) % 2;
      return true;
    }
  }
  return false;
}

void NetworkInterface::eject(Flit&& flit, Cycle arrival) {
  eject_queue_.push_back(EjectedFlit{std::move(flit), arrival});
}

void NetworkInterface::tick_eject(Cycle now, std::vector<int>& freed_vcs) {
  while (!eject_queue_.empty() && eject_queue_.front().arrival <= now) {
    EjectedFlit entry = std::move(eject_queue_.front());
    eject_queue_.pop_front();
    freed_vcs.push_back(entry.flit.vc);
    if (entry.flit.is_tail) {
      Packet& pkt = *entry.flit.pkt;
      pkt.delivered = now;
      ++stats_.packets_delivered;
      if (handler_) handler_(pkt);
    }
  }
}

void NetworkInterface::deliver_local(const Packet& pkt) {
  ++stats_.packets_delivered;
  if (handler_) handler_(pkt);
}

json::Value NetworkInterface::save_state() const {
  json::Object o;
  json::Array credits;
  for (const int c : credits_) {
    credits.push_back(json::Value(static_cast<long long>(c)));
  }
  o["credits"] = json::Value(std::move(credits));
  o["rr_class"] = json::Value(static_cast<long long>(rr_class_));
  json::Array classes;
  for (const ClassState& cls : classes_) {
    json::Object co;
    json::Array queue;
    for (std::size_t i = 0; i < cls.queue.size(); ++i) {
      queue.push_back(common::ju64(cls.queue.at(i)->id));
    }
    co["queue"] = json::Value(std::move(queue));
    // Only the flits still to inject: the ones before the cursor were
    // moved into the router.
    json::Array flits;
    for (std::size_t i = cls.cursor; i < cls.flits.size(); ++i) {
      flits.push_back(flit_to_json(cls.flits[i]));
    }
    co["flits"] = json::Value(std::move(flits));
    co["vc"] = json::Value(static_cast<long long>(cls.vc));
    co["rr_vc"] = json::Value(static_cast<long long>(cls.rr_vc));
    classes.push_back(json::Value(std::move(co)));
  }
  o["classes"] = json::Value(std::move(classes));
  json::Array eject;
  for (std::size_t i = 0; i < eject_queue_.size(); ++i) {
    const EjectedFlit& e = eject_queue_.at(i);
    json::Array a;
    a.push_back(flit_to_json(e.flit));
    a.push_back(common::ju64(e.arrival));
    eject.push_back(json::Value(std::move(a)));
  }
  o["eject"] = json::Value(std::move(eject));
  o["stats"] = common::to_snapshot(stats_);
  return json::Value(std::move(o));
}

void NetworkInterface::load_state(const json::Value& v,
                                  const PacketResolver& resolve) {
  const json::Object& o = v.as_object();
  const json::Array& credits = o.at("credits").as_array();
  credits_.assign(credits.size(), 0);
  for (std::size_t i = 0; i < credits.size(); ++i) {
    credits_[i] = static_cast<int>(credits[i].as_int());
  }
  rr_class_ = static_cast<int>(o.at("rr_class").as_int());
  const json::Array& classes = o.at("classes").as_array();
  for (int c = 0; c < 2; ++c) {
    ClassState& cls = classes_[c];
    const json::Object& co = classes.at(static_cast<std::size_t>(c)).as_object();
    cls.queue.clear();
    for (const json::Value& idv : co.at("queue").as_array()) {
      cls.queue.push_back(resolve(static_cast<PacketId>(common::pu64(idv))));
    }
    cls.flits.clear();
    for (const json::Value& fv : co.at("flits").as_array()) {
      cls.flits.push_back(flit_from_json(fv, resolve));
    }
    cls.cursor = 0;
    cls.vc = static_cast<int>(co.at("vc").as_int());
    cls.rr_vc = static_cast<int>(co.at("rr_vc").as_int());
  }
  eject_queue_.clear();
  for (const json::Value& ev : o.at("eject").as_array()) {
    const json::Array& a = ev.as_array();
    EjectedFlit e;
    e.flit = flit_from_json(a.at(0), resolve);
    e.arrival = common::pu64(a.at(1));
    eject_queue_.push_back(std::move(e));
  }
  common::from_snapshot(o.at("stats"), stats_);
}

}  // namespace htpb::noc
