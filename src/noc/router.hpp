// Input-buffered virtual-channel wormhole router.
//
// Microarchitecture (Table I / Sec. III-D of the paper): 5 ports, 4 VCs per
// input port with 5-flit FIFOs, credit-based flow control, a 2-cycle router
// pipeline (buffer-write + route-compute/VC-allocate, then switch-allocate +
// switch-traverse) and 1-cycle links. The PacketInspector chain runs between
// the input buffer and route computation -- the attachment point of the
// paper's hardware Trojan (Fig. 2b).
//
// Hot-path layout: all input buffers are one contiguous block of
// kNumPorts x vcs x vc_depth slots, sized at construction; each input VC
// is a ring over its own vc_depth slots, driven by one-byte head/size
// registers. Flits move (never copy) through the buffers. Each output
// port keeps a bit mask of the input VCs currently routed to it, so switch
// allocation only examines real candidates instead of scanning all
// kNumPorts x vcs combinations -- while granting in exactly the same
// round-robin order as the full scan did.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/geometry.hpp"
#include "common/types.hpp"
#include "noc/config.hpp"
#include "noc/direction.hpp"
#include "noc/inspector.hpp"
#include "noc/packet.hpp"

namespace htpb::noc {

/// Per-router utilization counters -- what an on-chip traffic diagnostic
/// would see. The paper's false-data attack leaves every one of these
/// unchanged relative to a clean run (it rewrites payloads in flight),
/// which is why the attack-comparison scenario reports them.
struct RouterStats {
  std::uint64_t flits_forwarded = 0;      ///< flits sent out any non-local port
  std::uint64_t packets_routed = 0;       ///< head flits that completed RC
  std::uint64_t power_requests_seen = 0;  ///< POWER_REQ heads inspected
  std::uint64_t flits_ejected = 0;        ///< flits delivered to the local NI
  std::uint64_t sa_conflict_stalls = 0;   ///< switch-allocation losses
  std::uint64_t va_stalls = 0;            ///< head flits waiting for an output VC

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f("flits_forwarded", s.flits_forwarded);
    f("packets_routed", s.packets_routed);
    f("power_requests_seen", s.power_requests_seen);
    f("flits_ejected", s.flits_ejected);
    f("sa_conflict_stalls", s.sa_conflict_stalls);
    f("va_stalls", s.va_stalls);
  }
};

/// A flit leaving a router this cycle, to be applied by the network after
/// every router has ticked (two-phase update keeps evaluation
/// order-independent and deterministic).
struct LinkTransfer {
  NodeId from_router = kInvalidNode;
  Direction out_port = Direction::kLocal;
  Flit flit;
};

/// Buffer slot freed in `router`'s input `in_port`/`vc`; the network
/// forwards it upstream (neighbour router or local NI) as a credit.
struct CreditReturn {
  NodeId router = kInvalidNode;
  Direction in_port = Direction::kLocal;
  int vc = 0;
};

/// One mesh router. Each cycle the network runs every active router's
/// SA/ST stage and then its RC/VA stage, staging link transfers and
/// credits that it applies only after all routers ran -- a two-phase
/// update, so the result is independent of router order.
class Router {
 public:
  Router(NodeId id, const MeshGeometry& geom, const NocConfig& cfg);

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] Coord coord() const noexcept { return coord_; }

  /// Marks an output port as wired (edge routers leave mesh-boundary ports
  /// disconnected). Local is always connected.
  void set_port_connected(Direction p, bool connected);
  [[nodiscard]] bool port_connected(Direction p) const noexcept {
    return out_[port_index(p)].connected;
  }

  /// Accepts a flit into an input buffer; `arrival` is the cycle at which
  /// the flit has been fully written (becomes visible to the pipeline).
  void accept_flit(Direction in_port, Flit&& flit, Cycle arrival);

  /// Pipeline stage 2: switch allocation + traversal. At most one flit per
  /// output port and one per input port per cycle.
  void tick_sa_st(Cycle now, std::vector<LinkTransfer>& transfers,
                  std::vector<CreditReturn>& credits);

  /// Pipeline stage 1 (for newly arrived heads): inspection, route
  /// computation, VC allocation. Runs after SA within a tick so grants take
  /// effect the following cycle.
  void tick_rc_va(Cycle now);

  /// True while some input VC is fronted by a head awaiting RC/VA; the
  /// network skips tick_rc_va otherwise.
  [[nodiscard]] bool rc_pending() const noexcept {
    return rc_pending_mask_ != 0;
  }

  /// Credit bookkeeping for the downstream buffer behind output port `p`.
  void add_output_credit(Direction p, int vc) noexcept {
    ++out_[port_index(p)].vcs[static_cast<std::size_t>(vc)].credits;
  }

  [[nodiscard]] int input_occupancy(Direction p, int vc) const noexcept {
    return in_vcs_[static_cast<std::size_t>(port_index(p) * cfg_.vcs + vc)]
        .size;
  }
  [[nodiscard]] std::uint64_t buffered_flits() const noexcept {
    return buffered_flits_;
  }

  /// Attaches a packet inspector between buffer-write and route compute
  /// (Fig. 2b) -- the hook the hardware Trojan implants through. Not
  /// owned; inspectors run in attachment order on whole packets.
  void add_inspector(PacketInspector* inspector) {
    inspectors_.push_back(inspector);
  }

  [[nodiscard]] const RouterStats& stats() const noexcept { return stats_; }

  /// Checkpointing: everything that changes while flits move -- input-VC
  /// buffer contents, routing/allocation registers, output credits,
  /// round-robin pointers, stats. Wiring (connected ports, inspectors) is
  /// construction state and is not captured; ring positions and the RC/SA
  /// candidate masks are derived on load.
  [[nodiscard]] json::Value save_state() const;
  void load_state(const json::Value& v, const PacketResolver& resolve);

 private:
  /// Width of the per-VC ring registers; the constructor rejects a
  /// vc_depth they cannot index.
  using VcReg = std::uint8_t;

  struct BufferedFlit {
    Flit flit;
    Cycle arrival = 0;
  };

  /// Input VC `v` (= in_port * vcs + vc) owns slots
  /// [v * vc_depth, (v + 1) * vc_depth) of `slots_` as a ring.
  struct InputVc {
    VcReg head = 0;            // ring offset of the front flit
    VcReg size = 0;            // buffered flits
    bool active = false;       // holds a routed packet
    bool inspected = false;    // the front head already passed inspection
    Direction out_port = Direction::kLocal;
    std::int8_t out_vc = -1;
  };

  struct OutputVc {
    int credits = 0;
    bool allocated = false;
  };

  struct OutputPort {
    std::array<OutputVc, kMaxVcs> vcs;
    bool connected = false;
    int rr_candidate = 0;  // SA round-robin over input VCs (in_port * vcs + vc)
    int rr_vc = 0;         // VA round-robin over output VCs
    /// Bit v set <=> input VC v is routed to this port: the SA candidates.
    /// Derived from the input VCs' registers on load.
    std::uint64_t routed = 0;
  };

  /// Index into `slots_` of the flit `k` places behind input VC `v`'s
  /// front.
  [[nodiscard]] std::size_t slot_index(int v, int k) const noexcept {
    int pos = in_vcs_[static_cast<std::size_t>(v)].head + k;
    if (pos >= cfg_.vc_depth) pos -= cfg_.vc_depth;
    return static_cast<std::size_t>(v * cfg_.vc_depth + pos);
  }

  void run_inspectors(Packet& pkt, Cycle now);

  NodeId id_;          // snapshot-exempt: construction wiring (router identity)
  MeshGeometry geom_;  // snapshot-exempt: construction config, immutable
  Coord coord_;        // snapshot-exempt: derived from id_ and geometry
  NocConfig cfg_;
  std::vector<BufferedFlit> slots_;
  std::array<InputVc, kNumPorts * kMaxVcs> in_vcs_{};
  std::array<OutputPort, kNumPorts> out_;
  // snapshot-exempt: attached probes re-register themselves after restore
  std::vector<PacketInspector*> inspectors_;
  RouterStats stats_;
  std::uint64_t buffered_flits_ = 0;
  /// Bit v set <=> input VC v is idle and fronted by a head awaiting RC.
  /// Visiting set bits in ascending order is the (port, vc) scan order.
  std::uint64_t rc_pending_mask_ = 0;
  static_assert(kNumPorts * kMaxVcs <= 64, "per-VC bit masks are one word");
};

}  // namespace htpb::noc
