#include "noc/network.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common/snapshot.hpp"

namespace htpb::noc {

MeshNetwork::MeshNetwork(sim::Engine& engine, MeshGeometry geom, NocConfig cfg)
    : engine_(engine), geom_(geom), cfg_(cfg) {
  const int n = geom_.node_count();
  routers_.reserve(static_cast<std::size_t>(n));
  nis_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto id = static_cast<NodeId>(i);
    routers_.push_back(std::make_unique<Router>(id, geom_, cfg_));
    nis_.push_back(std::make_unique<NetworkInterface>(id, cfg_));
  }
  // Wire up mesh connectivity and the neighbour table: a port is connected
  // iff the neighbour exists. Phases 4-5 then hop through the table
  // instead of recomputing coord_of/step/id_of per transfer.
  neighbour_.assign(static_cast<std::size_t>(n) * kNumPorts, -1);
  for (int i = 0; i < n; ++i) {
    const Coord c = geom_.coord_of(static_cast<NodeId>(i));
    for (const Direction d :
         {Direction::kNorth, Direction::kEast, Direction::kSouth,
          Direction::kWest}) {
      const Coord nb = step(c, d);
      const bool in_mesh = geom_.contains(nb);
      routers_[static_cast<std::size_t>(i)]->set_port_connected(d, in_mesh);
      if (in_mesh) {
        neighbour_[static_cast<std::size_t>(i) * kNumPorts + port_index(d)] =
            static_cast<std::int32_t>(geom_.id_of(nb));
      }
    }
  }
  active_routers_ = DynamicBitset(static_cast<std::size_t>(n));
  active_inject_ = DynamicBitset(static_cast<std::size_t>(n));
  active_eject_ = DynamicBitset(static_cast<std::size_t>(n));
  engine_.add_tickable(this);
  // Loopback deliveries ride the serializable event path so a snapshot
  // can capture them: the packet parks in pending_local_ and the event
  // descriptor carries (node, packet id).
  engine_.set_handler(
      sim::EventKind::kNocLocalDeliver, -1, [this](const sim::EventDesc& d) {
        const auto it = pending_local_.find(static_cast<PacketId>(d.a));
        assert(it != pending_local_.end() && "loopback packet vanished");
        PacketPtr pkt = std::move(it->second);
        pending_local_.erase(it);
        pkt->delivered = engine_.now();
        record_delivery(*pkt);
        nis_[static_cast<std::size_t>(d.node)]->deliver_local(*pkt);
      });
}

PacketPtr MeshNetwork::make_packet(NodeId src, NodeId dst, PacketType type,
                                   std::uint32_t payload) {
  if (!geom_.contains(src) || !geom_.contains(dst)) {
    throw std::out_of_range("make_packet: node id outside mesh");
  }
  PacketPtr pkt = pool_.allocate();
  pkt->id = next_packet_id_++;
  pkt->src = src;
  pkt->dst = dst;
  pkt->type = type;
  pkt->payload = payload;
  switch (type) {
    case PacketType::kMemReply:
    case PacketType::kWriteback:
    case PacketType::kGeneric:
      pkt->size_flits = cfg_.data_packet_flits;
      break;
    case PacketType::kPowerRequest:
    case PacketType::kPowerGrant:
    case PacketType::kConfigCmd:
      pkt->size_flits = cfg_.command_packet_flits;
      break;
    default:
      pkt->size_flits = cfg_.meta_packet_flits;
      break;
  }
  return pkt;
}

void MeshNetwork::send(PacketPtr pkt) {
  pkt->birth = engine_.now();
  ++stats_.packets_sent;
  if (pkt->src == pkt->dst) {
    // Loopback: the tile's NI short-circuits the mesh with one cycle of
    // latency (local delivery never enters a router).
    const sim::EventDesc desc{sim::EventKind::kNocLocalDeliver,
                              static_cast<std::int32_t>(pkt->src), pkt->id, 0};
    pending_local_.emplace(pkt->id, std::move(pkt));
    engine_.schedule_desc_in(1, desc);
    return;
  }
  const NodeId src = pkt->src;
  nis_[src]->enqueue(std::move(pkt));
  active_inject_.set(src);
}

void MeshNetwork::record_delivery(const Packet& pkt) {
  ++stats_.packets_delivered;
  const auto lat = static_cast<double>(pkt.delivered - pkt.birth);
  stats_.latency_all.add(lat);
  switch (pkt.type) {
    case PacketType::kPowerRequest:
      ++stats_.power_requests_delivered;
      if (pkt.tampered) ++stats_.tampered_power_requests_delivered;
      stats_.latency_power_req.add(lat);
      break;
    case PacketType::kMemReadReq:
    case PacketType::kMemWriteReq:
    case PacketType::kMemReply:
    case PacketType::kWriteback:
      stats_.latency_mem.add(lat);
      break;
    default:
      break;
  }
}

void MeshNetwork::tick(Cycle now) {
  // Every phase visits its active set in ascending node id -- the same
  // order the full 0..N-1 scans used -- so handler invocations, staged
  // transfers and therefore every floating-point stats accumulation
  // happen in the pre-active-set order, bit for bit. A node that has gone
  // quiet leaves its set during the visit; phases 3 and 5 re-add any that
  // receive new work.

  // Phase 0: drain ejections (handlers may enqueue replies this cycle).
  active_eject_.retain_if([&](std::size_t i) {
    freed_vcs_.clear();
    nis_[i]->tick_eject(now, freed_vcs_);
    for (const int vc : freed_vcs_) {
      routers_[i]->add_output_credit(Direction::kLocal, vc);
    }
    return nis_[i]->eject_pending();
  });

  // Phases 1-2, one pass per active router: switch allocation / traversal,
  // staging link transfers and credit returns (applied after all routers
  // evaluated), then route computation / VC allocation for newly arrived
  // heads. SA and RC of a router touch only that router and the staged
  // vectors, and inspectors still run in ascending router order, so the
  // merged pass equals running all SA stages before all RC stages.
  // Routers woken by phases 3/5 start participating next cycle, exactly
  // like a freshly arrived flit did under the full scan.
  active_routers_.retain_if([&](std::size_t i) {
    Router& r = *routers_[i];
    r.tick_sa_st(now, transfers_, credits_);
    if (r.rc_pending()) r.tick_rc_va(now);
    return r.buffered_flits() != 0;
  });

  // Phase 3: NI injection (one flit per node per cycle). Includes NIs that
  // enqueued during phase 0 of this very cycle, as the full scan did.
  active_inject_.retain_if([&](std::size_t i) {
    Flit flit;
    if (nis_[i]->tick_inject(now, flit)) {
      routers_[i]->accept_flit(Direction::kLocal, std::move(flit),
                               now + static_cast<Cycle>(cfg_.link_latency));
      active_routers_.set(i);
    }
    return nis_[i]->pending_injections() != 0;
  });

  // Phase 4: apply staged credits (visible next cycle).
  for (const CreditReturn& cr : credits_) {
    if (cr.in_port == Direction::kLocal) {
      nis_[cr.router]->return_credit(cr.vc);
    } else {
      const std::int32_t up =
          neighbour_[static_cast<std::size_t>(cr.router) * kNumPorts +
                     port_index(cr.in_port)];
      assert(up >= 0 && "credit return through a disconnected port");
      routers_[static_cast<std::size_t>(up)]->add_output_credit(
          opposite(cr.in_port), cr.vc);
    }
  }

  // Phase 5: apply staged link transfers (arrive next cycle).
  for (LinkTransfer& tr : transfers_) {
    const Cycle arrival = now + static_cast<Cycle>(cfg_.link_latency);
    if (tr.out_port == Direction::kLocal) {
      if (tr.flit.is_tail) {
        // Record delivery stats when the tail reaches the NI.
        tr.flit.pkt->delivered = arrival;
        record_delivery(*tr.flit.pkt);
      }
      nis_[tr.from_router]->eject(std::move(tr.flit), arrival);
      active_eject_.set(tr.from_router);
    } else {
      const std::int32_t next =
          neighbour_[static_cast<std::size_t>(tr.from_router) * kNumPorts +
                     port_index(tr.out_port)];
      assert(next >= 0 && "transfer through a disconnected port");
      routers_[static_cast<std::size_t>(next)]->accept_flit(
          opposite(tr.out_port), std::move(tr.flit), arrival);
      active_routers_.set(static_cast<std::size_t>(next));
    }
  }

  // The staged sets were consumed by phases 4/5; leave them empty so the
  // between-cycles invariant save_state checks actually holds at every
  // cycle boundary (clear() keeps capacity, so this costs nothing).
  transfers_.clear();
  credits_.clear();
}

bool MeshNetwork::idle() const noexcept {
  // Between cycles a router is in its active set iff it buffers flits, and
  // an NI iff it has pending injections (marked on accept/enqueue, dropped
  // by the visit that finds them empty).
  return !active_routers_.any() && !active_inject_.any();
}

json::Value MeshNetwork::save_state() const {
  if (!transfers_.empty() || !credits_.empty()) {
    throw std::runtime_error(
        "MeshNetwork::save_state: staged transfers pending; snapshots are "
        "valid between cycles only");
  }
  json::Object o;

  std::vector<const Packet*> live(pool_.live_packets().begin(),
                                  pool_.live_packets().end());
  std::sort(live.begin(), live.end(),
            [](const Packet* a, const Packet* b) { return a->id < b->id; });
  json::Array packets;
  for (const Packet* p : live) packets.push_back(common::to_snapshot(*p));
  o["packets"] = json::Value(std::move(packets));
  o["next_packet_id"] = common::ju64(next_packet_id_);

  json::Array routers;
  for (const auto& r : routers_) routers.push_back(r->save_state());
  o["routers"] = json::Value(std::move(routers));
  json::Array nis;
  for (const auto& ni : nis_) nis.push_back(ni->save_state());
  o["nis"] = json::Value(std::move(nis));

  json::Array pending_local;
  for (const auto& [id, pkt] : pending_local_) {
    pending_local.push_back(common::ju64(id));
  }
  o["pending_local"] = json::Value(std::move(pending_local));

  o["stats"] = common::to_snapshot(stats_);
  return json::Value(std::move(o));
}

void MeshNetwork::load_state(const json::Value& v) {
  const json::Object& o = v.as_object();

  // Fresh packets first: holders below resolve flit references through
  // this map, and the refcount graph re-emerges from the holders alone.
  // Old packets are released as each holder's load clears it.
  std::unordered_map<PacketId, PacketPtr> restored;
  for (const json::Value& pv : o.at("packets").as_array()) {
    PacketPtr p = pool_.allocate();
    common::from_snapshot(pv, *p);
    const PacketId id = p->id;
    restored.emplace(id, std::move(p));
  }
  const PacketResolver resolve = [&restored](PacketId id) {
    const auto it = restored.find(id);
    if (it == restored.end()) {
      throw std::runtime_error("MeshNetwork::load_state: unknown packet id " +
                               std::to_string(id));
    }
    return it->second;
  };
  next_packet_id_ = static_cast<PacketId>(common::pu64(o.at("next_packet_id")));

  pending_local_.clear();
  for (const json::Value& idv : o.at("pending_local").as_array()) {
    const auto id = static_cast<PacketId>(common::pu64(idv));
    pending_local_.emplace(id, resolve(id));
  }

  const json::Array& routers = o.at("routers").as_array();
  for (std::size_t i = 0; i < routers_.size(); ++i) {
    routers_[i]->load_state(routers.at(i), resolve);
  }
  const json::Array& nis = o.at("nis").as_array();
  for (std::size_t i = 0; i < nis_.size(); ++i) {
    nis_[i]->load_state(nis.at(i), resolve);
  }

  // Between cycles each active set holds exactly the nodes with work, so
  // it is rebuilt from the restored routers and NIs.
  active_routers_.clear_all();
  active_inject_.clear_all();
  active_eject_.clear_all();
  for (std::size_t i = 0; i < routers_.size(); ++i) {
    if (routers_[i]->buffered_flits() != 0) active_routers_.set(i);
    if (nis_[i]->pending_injections() != 0) active_inject_.set(i);
    if (nis_[i]->eject_pending()) active_eject_.set(i);
  }

  transfers_.clear();
  credits_.clear();
  freed_vcs_.clear();

  common::from_snapshot(o.at("stats"), stats_);
}

RouterStats MeshNetwork::total_router_stats() const {
  RouterStats total;
  for (const auto& r : routers_) {
    const RouterStats& s = r->stats();
    total.flits_forwarded += s.flits_forwarded;
    total.packets_routed += s.packets_routed;
    total.power_requests_seen += s.power_requests_seen;
    total.flits_ejected += s.flits_ejected;
    total.sa_conflict_stalls += s.sa_conflict_stalls;
    total.va_stalls += s.va_stalls;
  }
  return total;
}

}  // namespace htpb::noc
