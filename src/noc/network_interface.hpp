// Per-tile network interface: packetization, injection with credit
// tracking toward the router's local input port, and reassembly/delivery
// on ejection.
#pragma once

#include <functional>
#include <vector>

#include "common/types.hpp"
#include "noc/config.hpp"
#include "noc/flit_fifo.hpp"
#include "noc/packet.hpp"

namespace htpb::noc {

struct NiStats {
  std::uint64_t packets_injected = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t flits_injected = 0;
  std::uint64_t inject_queue_peak = 0;

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f("packets_injected", s.packets_injected);
    f("packets_delivered", s.packets_delivered);
    f("flits_injected", s.flits_injected);
    f("inject_queue_peak", s.inject_queue_peak);
  }
};

/// Called when a packet addressed to this node has fully arrived.
using DeliveryHandler = std::function<void(const Packet&)>;

class NetworkInterface {
 public:
  NetworkInterface(NodeId id, const NocConfig& cfg);

  [[nodiscard]] NodeId id() const noexcept { return id_; }

  void set_handler(DeliveryHandler handler) { handler_ = std::move(handler); }

  /// Queues a packet for injection. The network sets id/birth/size before
  /// calling this.
  void enqueue(PacketPtr pkt);

  /// Stages at most one flit into the router's local input port per cycle
  /// (local port bandwidth), alternating between the two VC classes.
  /// Returns true and moves the flit into `out` when one was injected.
  bool tick_inject(Cycle now, Flit& out);

  /// Accepts an ejected flit from the router (arrives at `arrival`).
  void eject(Flit&& flit, Cycle arrival);

  /// Drains ejected flits that have arrived; delivers packets on tails.
  /// Freed buffer slots are reported as credits for the router's local
  /// output port through `freed_vcs`.
  void tick_eject(Cycle now, std::vector<int>& freed_vcs);

  /// Credit returned from the router's local input buffer.
  void return_credit(int vc) noexcept {
    ++credits_[static_cast<std::size_t>(vc)];
  }
  [[nodiscard]] int credits(int vc) const noexcept {
    return credits_[static_cast<std::size_t>(vc)];
  }

  /// Immediate local delivery for src == dst packets (no NoC traversal).
  void deliver_local(const Packet& pkt);

  [[nodiscard]] std::size_t pending_injections() const noexcept;
  /// True while ejected flits are waiting to be drained by tick_eject
  /// (drives the network's active-NI scheduling).
  [[nodiscard]] bool eject_pending() const noexcept {
    return !eject_queue_.empty();
  }
  [[nodiscard]] const NiStats& stats() const noexcept { return stats_; }

  /// Checkpointing: inject/eject queues (as packet-id references),
  /// credits, round-robin pointers, stats. The delivery handler is wiring
  /// and is not captured.
  [[nodiscard]] json::Value save_state() const;
  void load_state(const json::Value& v, const PacketResolver& resolve);

 private:
  struct ClassState {
    DynRingFifo<PacketPtr> queue;
    std::vector<Flit> flits;    // flits of the in-flight packet (capacity
                                // reused across packets via make_flits_into);
                                // those before `cursor` were moved out
    std::size_t cursor = 0;     // next flit to inject
    int vc = -1;                // VC assigned to the in-flight packet
    int rr_vc = 0;              // round-robin VC choice within the class
  };

  struct EjectedFlit {
    Flit flit;
    Cycle arrival;
  };

  bool try_inject_class(int cls, Flit& out);

  NodeId id_;      // snapshot-exempt: construction wiring (tile identity)
  NocConfig cfg_;  // snapshot-exempt: construction config, immutable
  DeliveryHandler handler_;  // snapshot-exempt: callback wiring, re-installed by construction
  std::vector<int> credits_;
  ClassState classes_[2];
  int rr_class_ = 0;
  DynRingFifo<EjectedFlit> eject_queue_;
  NiStats stats_;
};

}  // namespace htpb::noc
