// The 2D-mesh network: owns routers, links and network interfaces, and
// performs the deterministic two-phase per-cycle evaluation.
//
// Hot-path machinery: the per-cycle phases iterate *active sets* (routers
// holding flits, NIs with pending injections/ejections) instead of
// scanning every node -- a quiescent mesh costs near-zero per cycle. Each
// set is a bitset over node ids, visited in ascending id order, so
// evaluation order, and with it every stat and delivery sequence, is
// bit-identical to the full scans (locked by
// tests/noc/golden_stats_test.cpp); a node that went quiet is dropped
// during the same visit. Each active router runs SA/ST and then RC/VA in
// one pass. Packets come from a recycling PacketPool, flits move (never
// copy) from hop to hop, and link/credit hops use precomputed neighbour
// tables instead of re-deriving coordinates per transfer.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "common/bitset.hpp"
#include "common/geometry.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "noc/config.hpp"
#include "noc/network_interface.hpp"
#include "noc/packet.hpp"
#include "noc/router.hpp"
#include "sim/engine.hpp"

namespace htpb::noc {

struct NetworkStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t power_requests_delivered = 0;
  std::uint64_t tampered_power_requests_delivered = 0;
  RunningStat latency_all;
  RunningStat latency_power_req;
  RunningStat latency_mem;

  void reset() { *this = NetworkStats{}; }

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f("packets_sent", s.packets_sent);
    f("packets_delivered", s.packets_delivered);
    f("power_requests_delivered", s.power_requests_delivered);
    f("tampered_power_requests_delivered",
      s.tampered_power_requests_delivered);
    f("latency_all", s.latency_all);
    f("latency_power_req", s.latency_power_req);
    f("latency_mem", s.latency_mem);
  }
};

class MeshNetwork : public sim::Tickable {
 public:
  MeshNetwork(sim::Engine& engine, MeshGeometry geom, NocConfig cfg);

  MeshNetwork(const MeshNetwork&) = delete;
  MeshNetwork& operator=(const MeshNetwork&) = delete;

  [[nodiscard]] const MeshGeometry& geometry() const noexcept { return geom_; }
  [[nodiscard]] const NocConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }

  /// Creates a packet with a fresh id and the wire size implied by `type`.
  /// Drawn from the network's recycling pool; the handle may outlive the
  /// network (stragglers fall back to plain frees).
  [[nodiscard]] PacketPtr make_packet(NodeId src, NodeId dst, PacketType type,
                                      std::uint32_t payload = 0);

  /// Injects a packet from its source node's NI. Local (src == dst)
  /// packets are delivered after one cycle without touching the mesh.
  void send(PacketPtr pkt);

  void set_handler(NodeId node, DeliveryHandler handler) {
    nis_[node]->set_handler(std::move(handler));
  }

  [[nodiscard]] Router& router(NodeId id) noexcept { return *routers_[id]; }
  [[nodiscard]] const Router& router(NodeId id) const noexcept {
    return *routers_[id];
  }
  [[nodiscard]] NetworkInterface& ni(NodeId id) noexcept { return *nis_[id]; }

  void add_inspector(NodeId router_id, PacketInspector* inspector) {
    routers_[router_id]->add_inspector(inspector);
  }

  void tick(Cycle now) override;

  [[nodiscard]] NetworkStats& stats() noexcept { return stats_; }
  [[nodiscard]] const NetworkStats& stats() const noexcept { return stats_; }

  /// True when no flit is buffered or in flight anywhere and no injection
  /// is pending (used by drain-style tests).
  [[nodiscard]] bool idle() const noexcept;

  /// Aggregated router statistics.
  [[nodiscard]] RouterStats total_router_stats() const;

  /// The packet pool (observability: live handles / free-list depth).
  [[nodiscard]] const PacketPool& packet_pool() const noexcept { return pool_; }

  /// Checkpointing: live packets (sorted by id), per-router and per-NI
  /// state, pending loopback deliveries and stats (the active sets are
  /// derived from the restored routers and NIs). Valid
  /// between cycles only -- save_state throws if the staged transfer or
  /// credit vectors are non-empty (they are drained within each tick).
  /// Wiring (neighbour tables, handlers, inspectors, port connectivity)
  /// is construction state and is not captured; load_state releases every
  /// currently held packet and rebuilds the ownership graph from the
  /// saved holders.
  [[nodiscard]] json::Value save_state() const;
  void load_state(const json::Value& v);

 private:
  void record_delivery(const Packet& pkt);

  sim::Engine& engine_;  // snapshot-exempt: non-owning wiring, re-attached by construction
  MeshGeometry geom_;    // snapshot-exempt: construction config, immutable
  NocConfig cfg_;        // snapshot-exempt: construction config, immutable
  PacketPool pool_;
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<NetworkInterface>> nis_;
  /// neighbour_[node * kNumPorts + port]: adjacent router id, -1 if edge.
  // snapshot-exempt: precomputed from the immutable mesh geometry
  std::vector<std::int32_t> neighbour_;
  std::vector<LinkTransfer> transfers_;
  std::vector<CreditReturn> credits_;
  std::vector<int> freed_vcs_;
  /// Active sets by node id: routers holding flits, NIs with pending
  /// injections, NIs with ejected flits to drain.
  DynamicBitset active_routers_;
  DynamicBitset active_inject_;
  DynamicBitset active_eject_;
  /// Loopback (src == dst) packets awaiting their kNocLocalDeliver event,
  /// keyed by packet id. std::map: save order must be deterministic.
  std::map<PacketId, PacketPtr> pending_local_;
  NetworkStats stats_;
  PacketId next_packet_id_ = 1;
};

}  // namespace htpb::noc
