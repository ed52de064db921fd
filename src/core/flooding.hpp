// Baseline attack from the paper's related-work taxonomy (Sec. II-B,
// class 1): a flooding DoS Trojan that saturates a victim node -- here the
// global manager -- with junk packets. Implemented so the scenarios can
// contrast it with the paper's false-data attack on two axes:
//   damage   : how much victim performance it destroys, and
//   stealth  : how much *extra traffic* it injects (a flooding Trojan is
//              trivially visible to NoC utilization counters; the
//              false-data Trojan adds zero packets).
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "noc/network.hpp"
#include "sim/engine.hpp"

namespace htpb::core {

class FloodingAttacker final : public sim::Tickable {
 public:
  /// Injects `rate` junk packets per cycle (fractional rates accumulate)
  /// from `source` toward `target`.
  FloodingAttacker(noc::MeshNetwork* net, NodeId source, NodeId target,
                   double rate, std::uint64_t seed)
      : net_(net), source_(source), target_(target), rate_(rate), rng_(seed) {}

  void tick(Cycle now) override;

  [[nodiscard]] std::uint64_t packets_injected() const noexcept {
    return injected_;
  }

 private:
  noc::MeshNetwork* net_;
  NodeId source_;
  NodeId target_;
  double rate_;
  Rng rng_;
  double accumulator_ = 0.0;
  std::uint64_t injected_ = 0;
};

}  // namespace htpb::core
