// Synthetic NoC traffic for the benchmark's NoC kernel probe: every node
// injects Bernoulli(rate) packets per cycle to uniform-random
// destinations, with the mixed packet types of bench_noc_hotpath's
// uniform load. The probe sets `rate` to the packets per node per cycle
// a real chip of the workload injected, so the kernel is timed at the
// load the workload puts on it.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "noc/network.hpp"
#include "sim/engine.hpp"

namespace scenbench {

/// Ticked after the network (registration order), so injections enqueue
/// exactly as a core/NI pair would.
class UniformTraffic : public htpb::sim::Tickable {
 public:
  UniformTraffic(htpb::noc::MeshNetwork& net, double rate, std::uint64_t seed)
      : net_(net), rate_(rate), rng_(seed),
        nodes_(static_cast<std::uint64_t>(net.geometry().node_count())) {
    net_.engine().add_tickable(this);
  }

  void tick(htpb::Cycle /*now*/) override {
    static constexpr htpb::noc::PacketType kKinds[] = {
        htpb::noc::PacketType::kMemReadReq, htpb::noc::PacketType::kMemReply,
        htpb::noc::PacketType::kPowerRequest,
        htpb::noc::PacketType::kWriteback};
    for (std::uint64_t n = 0; n < nodes_; ++n) {
      if (!rng_.chance(rate_)) continue;
      auto dst = rng_.below(nodes_);
      if (dst == n) dst = (dst + 1) % nodes_;
      net_.send(net_.make_packet(static_cast<htpb::NodeId>(n),
                                 static_cast<htpb::NodeId>(dst),
                                 kKinds[rng_.below(4)]));
    }
  }

 private:
  htpb::noc::MeshNetwork& net_;
  double rate_;
  htpb::Rng rng_;
  std::uint64_t nodes_;
};

}  // namespace scenbench
