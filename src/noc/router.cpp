#include "noc/router.hpp"

#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/snapshot.hpp"
#include "noc/routing.hpp"

namespace htpb::noc {

Router::Router(NodeId id, const MeshGeometry& geom, const NocConfig& cfg)
    : id_(id), geom_(geom), coord_(geom.coord_of(id)), cfg_(cfg) {
  if (cfg_.vcs < 2 || cfg_.vcs % 2 != 0) {
    throw std::invalid_argument("Router: vcs must be even and >= 2");
  }
  if (cfg_.vcs > kMaxVcs) {
    throw std::invalid_argument(
        "Router: vcs exceeds the inline VC-state cap (kMaxVcs in "
        "noc/config.hpp)");
  }
  // A depth of 0 would leave the NIs without a single credit: every packet
  // would queue forever without an error.
  if (cfg_.vc_depth < 1 ||
      cfg_.vc_depth > std::numeric_limits<VcReg>::max()) {
    throw std::invalid_argument(
        "Router: vc_depth must be in [1, " +
        std::to_string(std::numeric_limits<VcReg>::max()) + "]");
  }
  slots_.resize(static_cast<std::size_t>(kNumPorts * cfg_.vcs * cfg_.vc_depth));
  for (auto& port : out_) {
    for (int v = 0; v < cfg_.vcs; ++v) {
      port.vcs[static_cast<std::size_t>(v)].credits = cfg_.vc_depth;
    }
  }
  out_[port_index(Direction::kLocal)].connected = true;
}

void Router::set_port_connected(Direction p, bool connected) {
  out_[port_index(p)].connected = connected;
}

void Router::accept_flit(Direction in_port, Flit&& flit, Cycle arrival) {
  const int v = port_index(in_port) * cfg_.vcs + flit.vc;
  InputVc& ivc = in_vcs_[static_cast<std::size_t>(v)];
  assert(ivc.size < cfg_.vc_depth &&
         "credit protocol violated: input buffer overflow");
  // A head landing at the front of an idle VC starts waiting for RC.
  if (!ivc.active && ivc.size == 0 && flit.is_head) {
    rc_pending_mask_ |= 1ULL << v;
  }
  BufferedFlit& slot = slots_[slot_index(v, ivc.size)];
  slot.flit = std::move(flit);
  slot.arrival = arrival;
  ++ivc.size;
  ++buffered_flits_;
}

void Router::tick_sa_st(Cycle now, std::vector<LinkTransfer>& transfers,
                        std::vector<CreditReturn>& credits) {
  if (buffered_flits_ == 0) return;
  const int candidates = kNumPorts * cfg_.vcs;
  bool input_used[kNumPorts] = {false, false, false, false, false};

  for (int pi = 0; pi < kNumPorts; ++pi) {
    OutputPort& oport = out_[pi];
    if (!oport.connected || oport.routed == 0) continue;
    const auto out_dir = static_cast<Direction>(pi);

    // Visit the routed input VCs in circular order from rr_candidate:
    // rotating the mask puts VC rr_candidate at bit 0 and the VCs below it
    // above every other bit (there are at most 40 of 64). That is exactly
    // the old full scan over all (in_port, vc) combinations -- unrouted
    // combinations had no effect -- so grants and conflict-stall counts
    // stay bit-identical.
    const int rr = oport.rr_candidate;
    for (std::uint64_t m = std::rotr(oport.routed, rr); m != 0; m &= m - 1) {
      const int v = (std::countr_zero(m) + rr) & 63;
      const int in_pi = v / cfg_.vcs;
      if (input_used[in_pi]) continue;
      InputVc& ivc = in_vcs_[static_cast<std::size_t>(v)];
      assert(ivc.active && ivc.out_port == out_dir);
      if (ivc.size == 0) continue;

      BufferedFlit& front = slots_[slot_index(v, 0)];
      // The flit spends cfg_.router_latency cycles in this router before it
      // may traverse the switch.
      if (now < front.arrival + static_cast<Cycle>(cfg_.router_latency)) {
        continue;
      }
      OutputVc& ovc = oport.vcs[static_cast<std::size_t>(ivc.out_vc)];
      if (ovc.credits <= 0) {
        ++stats_.sa_conflict_stalls;
        continue;
      }

      // Grant: move the flit through the crossbar onto the link. The
      // moved-from slot holds no packet reference.
      const bool tail = front.flit.is_tail;
      transfers.push_back(LinkTransfer{id_, out_dir, std::move(front.flit)});
      transfers.back().flit.vc = ivc.out_vc;
      credits.push_back(CreditReturn{id_, static_cast<Direction>(in_pi),
                                     v - in_pi * cfg_.vcs});
      ivc.head = static_cast<VcReg>(ivc.head + 1 == cfg_.vc_depth ? 0
                                                                  : ivc.head + 1);
      --ivc.size;
      ivc.inspected = false;
      --buffered_flits_;
      --ovc.credits;
      ++stats_.flits_forwarded;
      if (out_dir == Direction::kLocal) ++stats_.flits_ejected;

      if (tail) {
        ovc.allocated = false;
        ivc.active = false;
        ivc.out_vc = -1;
        oport.routed &= ~(1ULL << v);
        // The next packet's head (if queued behind the tail) now fronts an
        // idle VC and waits for RC.
        if (ivc.size != 0 && slots_[slot_index(v, 0)].flit.is_head) {
          rc_pending_mask_ |= 1ULL << v;
        }
      }
      input_used[in_pi] = true;
      oport.rr_candidate = v + 1 == candidates ? 0 : v + 1;
      break;  // one flit per output port per cycle
    }
  }
}

json::Value Router::save_state() const {
  json::Object o;
  json::Array in_vcs;
  for (int v = 0; v < kNumPorts * cfg_.vcs; ++v) {
    const InputVc& ivc = in_vcs_[static_cast<std::size_t>(v)];
    json::Object vo;
    json::Array fifo;
    for (int k = 0; k < ivc.size; ++k) {
      const BufferedFlit& bf = slots_[slot_index(v, k)];
      json::Array e;
      e.push_back(flit_to_json(bf.flit));
      e.push_back(common::ju64(bf.arrival));
      fifo.push_back(json::Value(std::move(e)));
    }
    vo["fifo"] = json::Value(std::move(fifo));
    vo["active"] = json::Value(ivc.active);
    vo["inspected"] = json::Value(ivc.inspected);
    vo["out_port"] = json::Value(static_cast<long long>(ivc.out_port));
    vo["out_vc"] = json::Value(static_cast<long long>(ivc.out_vc));
    in_vcs.push_back(json::Value(std::move(vo)));
  }
  o["in"] = json::Value(std::move(in_vcs));

  json::Array out_ports;
  for (int pi = 0; pi < kNumPorts; ++pi) {
    const OutputPort& port = out_[static_cast<std::size_t>(pi)];
    json::Object po;
    json::Array vcs;
    for (int vi = 0; vi < cfg_.vcs; ++vi) {
      const OutputVc& ovc = port.vcs[static_cast<std::size_t>(vi)];
      json::Array e;
      e.push_back(json::Value(static_cast<long long>(ovc.credits)));
      e.push_back(json::Value(ovc.allocated));
      vcs.push_back(json::Value(std::move(e)));
    }
    po["vcs"] = json::Value(std::move(vcs));
    po["rr_candidate"] = json::Value(static_cast<long long>(port.rr_candidate));
    po["rr_vc"] = json::Value(static_cast<long long>(port.rr_vc));
    out_ports.push_back(json::Value(std::move(po)));
  }
  o["out"] = json::Value(std::move(out_ports));
  o["stats"] = common::to_snapshot(stats_);
  return json::Value(std::move(o));
}

void Router::load_state(const json::Value& v, const PacketResolver& resolve) {
  const json::Object& o = v.as_object();
  buffered_flits_ = 0;
  rc_pending_mask_ = 0;
  for (BufferedFlit& bf : slots_) bf = BufferedFlit{};
  for (OutputPort& port : out_) port.routed = 0;

  const json::Array& in_vcs = o.at("in").as_array();
  for (int v = 0; v < kNumPorts * cfg_.vcs; ++v) {
    InputVc& ivc = in_vcs_[static_cast<std::size_t>(v)];
    const json::Object& vo = in_vcs.at(static_cast<std::size_t>(v)).as_object();
    const json::Array& fifo = vo.at("fifo").as_array();
    if (fifo.size() > static_cast<std::size_t>(cfg_.vc_depth)) {
      throw std::runtime_error("Router::load_state: input VC holds more "
                               "flits than vc_depth");
    }
    ivc = InputVc{};
    ivc.active = vo.at("active").as_bool();
    ivc.inspected = vo.at("inspected").as_bool();
    const long long out_port = vo.at("out_port").as_int();
    const long long out_vc = vo.at("out_vc").as_int();
    if (out_port < 0 || out_port >= kNumPorts || out_vc < -1 ||
        out_vc >= cfg_.vcs || (ivc.active && out_vc < 0)) {
      throw std::runtime_error("Router::load_state: input VC route out of "
                               "range");
    }
    ivc.out_port = static_cast<Direction>(out_port);
    ivc.out_vc = static_cast<std::int8_t>(out_vc);
    for (const json::Value& ev : fifo) {
      const json::Array& e = ev.as_array();
      BufferedFlit& bf = slots_[slot_index(v, ivc.size)];
      bf.flit = flit_from_json(e.at(0), resolve);
      bf.arrival = common::pu64(e.at(1));
      ++ivc.size;
      ++buffered_flits_;
    }
    if (ivc.active) {
      out_[port_index(ivc.out_port)].routed |= 1ULL << v;
    } else if (ivc.size != 0 && slots_[slot_index(v, 0)].flit.is_head) {
      rc_pending_mask_ |= 1ULL << v;
    }
  }

  const json::Array& out_ports = o.at("out").as_array();
  for (int pi = 0; pi < kNumPorts; ++pi) {
    OutputPort& port = out_[static_cast<std::size_t>(pi)];
    const json::Object& po =
        out_ports.at(static_cast<std::size_t>(pi)).as_object();
    const json::Array& vcs = po.at("vcs").as_array();
    for (int vi = 0; vi < cfg_.vcs; ++vi) {
      OutputVc& ovc = port.vcs[static_cast<std::size_t>(vi)];
      const json::Array& e = vcs.at(static_cast<std::size_t>(vi)).as_array();
      ovc.credits = static_cast<int>(e.at(0).as_int());
      ovc.allocated = e.at(1).as_bool();
    }
    port.rr_candidate = static_cast<int>(po.at("rr_candidate").as_int());
    port.rr_vc = static_cast<int>(po.at("rr_vc").as_int());
  }
  common::from_snapshot(o.at("stats"), stats_);
}

void Router::run_inspectors(Packet& pkt, Cycle now) {
  for (PacketInspector* inspector : inspectors_) {
    inspector->inspect(pkt, id_, now);
  }
}

void Router::tick_rc_va(Cycle now) {
  // Only input VCs fronted by an unrouted head need RC/VA; accept_flit and
  // tick_sa_st keep their bits in rc_pending_mask_, so mid-packet VCs cost
  // nothing here.
  for (std::uint64_t m = rc_pending_mask_; m != 0; m &= m - 1) {
    const int v = std::countr_zero(m);
    InputVc& ivc = in_vcs_[static_cast<std::size_t>(v)];
    const BufferedFlit& front = slots_[slot_index(v, 0)];
    assert(!ivc.active && ivc.size != 0 && front.flit.is_head);
    // One cycle of buffer write before the head enters RC.
    if (now < front.arrival + 1) continue;

    Packet& pkt = *front.flit.pkt;
    if (!ivc.inspected) {
      // Fig. 2b: the Trojan taps the path between the input buffer and
      // the routing-computation unit, so it sees the packet exactly once
      // per router, before the route is computed.
      run_inspectors(pkt, now);
      ivc.inspected = true;
      if (pkt.type == PacketType::kPowerRequest) {
        ++stats_.power_requests_seen;
      }
    }

    const Direction out_dir = xy_route(coord_, geom_.coord_of(pkt.dst));
    const int vc_class = vc_class_of(pkt.type);
    OutputPort& oport = out_[port_index(out_dir)];
    assert(oport.connected && "routing selected a disconnected port");

    // VC allocation: round-robin over the free VCs of the packet's class.
    const int base = cfg_.class_base(vc_class);
    const int span = cfg_.vcs_per_class();
    int granted = -1;
    for (int k = 0; k < span; ++k) {
      int rel = oport.rr_vc + k;
      if (rel >= span) rel -= span;
      const int ov = base + rel;
      if (!oport.vcs[static_cast<std::size_t>(ov)].allocated) {
        granted = ov;
        break;
      }
    }
    if (granted < 0) {
      ++stats_.va_stalls;
      continue;
    }
    oport.vcs[static_cast<std::size_t>(granted)].allocated = true;
    const int next_rr = granted - base + 1;
    oport.rr_vc = next_rr == span ? 0 : next_rr;
    oport.routed |= 1ULL << v;
    ivc.active = true;
    ivc.out_port = out_dir;
    ivc.out_vc = static_cast<std::int8_t>(granted);
    ++stats_.packets_routed;
    rc_pending_mask_ &= ~(1ULL << v);
  }
}

}  // namespace htpb::noc
