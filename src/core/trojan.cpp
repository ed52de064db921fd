#include "core/trojan.hpp"

namespace htpb::core {

void HardwareTrojan::inspect(noc::Packet& pkt, NodeId /*router*/,
                             Cycle /*now*/) {
  // Comparator 1 (Fig. 2a): CONFIG_CMD? -> latch the configuration.
  if (pkt.type == noc::PacketType::kConfigCmd) {
    latch_config(pkt);
    return;
  }
  if (!active_) return;  // dormant Trojans forward everything untouched
  // Comparators 2+3: POWER_REQ destined for the global manager, whose
  // source is not one of the attacker's agents?
  if (pkt.type != noc::PacketType::kPowerRequest) return;
  ++stats_.power_requests_seen;
  if (pkt.dst != gm_) return;
  tamper(pkt);
}

void HardwareTrojan::latch_config(const noc::Packet& pkt) {
  const auto cfg = decode_config(pkt);
  if (!cfg.has_value()) return;  // malformed frame: ignore, never wedge
  ++stats_.config_packets_seen;
  gm_ = cfg->global_manager;
  attackers_ = cfg->attacker_agents;
  active_ = cfg->active;
  attenuate_victims_ = cfg->attenuate_victims;
  boost_attackers_ = cfg->boost_attackers;
  if (cfg->victim_scale > 0.0 && cfg->victim_scale <= 1.0) {
    victim_scale_ = cfg->victim_scale;
  }
  if (cfg->attacker_boost >= 1.0) attacker_boost_ = cfg->attacker_boost;
}

void HardwareTrojan::tamper(noc::Packet& pkt) {
  if (is_attacker(pkt.src)) {
    if (!boost_attackers_) return;
    // Raise the accomplice's request. Saturating multiply; a request
    // boosted by an earlier Trojan on the path is left alone (the payload
    // already carries the inflated value). Not flagged as "infected":
    // the infection-rate metric counts victims whose requests were
    // altered against their will.
    if (pkt.boosted || pkt.payload == 0) return;
    const double boosted = pkt.payload * attacker_boost_;
    pkt.original_payload = pkt.payload;
    pkt.payload = boosted > 4.0e9 ? 0xFFFFFFFFU
                                  : static_cast<std::uint32_t>(boosted);
    pkt.boosted = true;
    ++stats_.attacker_requests_boosted;
    return;
  }
  if (!attenuate_victims_) return;
  if (pkt.tampered) return;  // an upstream Trojan already shrank it
  pkt.original_payload = pkt.payload;
  auto scaled = static_cast<std::uint32_t>(pkt.payload * victim_scale_);
  if (scaled == 0 && pkt.payload != 0) scaled = 1;
  pkt.payload = scaled;
  pkt.tampered = true;
  ++stats_.victim_requests_modified;
}

}  // namespace htpb::core
