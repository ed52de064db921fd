#include "noc/packet.hpp"

#include <sstream>
#include <stdexcept>

#include "common/snapshot.hpp"

namespace htpb::noc {

const char* to_string(PacketType t) noexcept {
  switch (t) {
    case PacketType::kGeneric: return "GENERIC";
    case PacketType::kPowerRequest: return "POWER_REQ";
    case PacketType::kPowerGrant: return "POWER_GRANT";
    case PacketType::kConfigCmd: return "CONFIG_CMD";
    case PacketType::kMemReadReq: return "MEM_READ";
    case PacketType::kMemWriteReq: return "MEM_WRITE";
    case PacketType::kMemReply: return "MEM_REPLY";
    case PacketType::kCohInvalidate: return "COH_INV";
    case PacketType::kCohAck: return "COH_ACK";
    case PacketType::kWriteback: return "WRITEBACK";
  }
  return "?";
}

std::string Packet::to_string() const {
  std::ostringstream os;
  os << noc::to_string(type) << " #" << id << " " << src << "->" << dst
     << " payload=" << payload << " flits=" << size_flits;
  if (tampered) os << " [TAMPERED from " << original_payload << "]";
  return os.str();
}

void PacketPtr::dispose(Packet* p) noexcept {
  detail::PoolCore* core = p->ctrl.pool;
  --core->live;
  if (core->alive) {
    // Swap-remove from the live table (O(1); order is not meaningful).
    auto& live = core->live_list;
    const std::uint32_t i = p->ctrl.live_index;
    live[i] = live.back();
    live[i]->ctrl.live_index = i;
    live.pop_back();
    core->free.push_back(p);
  } else {
    // The pool is gone; the core sticks around until the last straggler
    // (e.g. a packet captured in an engine event) frees it.
    delete p;
    if (core->live == 0) delete core;
  }
}

namespace {

/// Back to default-constructed state, minus the options capacity -- that
/// retained buffer is the point of recycling.
void reset_for_reuse(Packet& p) noexcept {
  p.id = 0;
  p.src = kInvalidNode;
  p.dst = kInvalidNode;
  p.type = PacketType::kGeneric;
  p.payload = 0;
  p.options.clear();
  p.size_flits = 1;
  p.tag = 0;
  p.src_app = kInvalidApp;
  p.birth = 0;
  p.delivered = 0;
  p.tampered = false;
  p.boosted = false;
  p.original_payload = 0;
}

}  // namespace

PacketPool::~PacketPool() {
  core_->alive = false;
  core_->live_list.clear();  // stragglers free themselves; drop the pointers
  for (Packet* p : core_->free) delete p;
  core_->free.clear();
  if (core_->live == 0) delete core_;
}

PacketPtr PacketPool::allocate() {
  Packet* p;
  if (core_->free.empty()) {
    p = new Packet();
  } else {
    p = core_->free.back();
    core_->free.pop_back();
    reset_for_reuse(*p);
  }
  p->ctrl.pool = core_;
  p->ctrl.refs = 1;
  p->ctrl.live_index = static_cast<std::uint32_t>(core_->live_list.size());
  core_->live_list.push_back(p);
  ++core_->live;
  return PacketPtr::adopt(p);
}

json::Value flit_to_json(const Flit& f) {
  json::Array a;
  a.push_back(common::ju64(f.pkt ? f.pkt->id : 0));
  a.push_back(json::Value(static_cast<long long>(f.index)));
  a.push_back(json::Value(static_cast<long long>(f.vc)));
  return json::Value(std::move(a));
}

Flit flit_from_json(const json::Value& v, const PacketResolver& resolve) {
  const json::Array& a = v.as_array();
  Flit f;
  f.pkt = resolve(static_cast<PacketId>(common::pu64(a.at(0))));
  if (f.pkt == nullptr) {
    throw std::runtime_error("flit_from_json: unresolved packet id");
  }
  f.index = static_cast<std::uint16_t>(a.at(1).as_int());
  f.vc = static_cast<std::int8_t>(a.at(2).as_int());
  const int n = f.pkt->size_flits < 1 ? 1 : f.pkt->size_flits;
  f.is_head = f.index == 0;
  f.is_tail = f.index == n - 1;
  return f;
}

void make_flits_into(const PacketPtr& pkt, std::vector<Flit>& out) {
  const int n = pkt->size_flits < 1 ? 1 : pkt->size_flits;
  out.clear();
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Flit f;
    f.pkt = pkt;
    f.index = static_cast<std::uint16_t>(i);
    f.is_head = (i == 0);
    f.is_tail = (i == n - 1);
    out.push_back(std::move(f));
  }
}

}  // namespace htpb::noc
