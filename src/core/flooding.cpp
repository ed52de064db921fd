#include "core/flooding.hpp"

namespace htpb::core {

void FloodingAttacker::tick(Cycle /*now*/) {
  accumulator_ += rate_;
  while (accumulator_ >= 1.0) {
    accumulator_ -= 1.0;
    // Junk data packets (5 flits) with randomized payloads, all aimed at
    // the target.
    auto pkt = net_->make_packet(source_, target_, noc::PacketType::kGeneric,
                                 static_cast<std::uint32_t>(rng_()));
    net_->send(std::move(pkt));
    ++injected_;
  }
}

}  // namespace htpb::core
