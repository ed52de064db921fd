#include "core/trojan_config.hpp"

#include <algorithm>
#include <cmath>

#include "common/validate.hpp"

namespace htpb::core {

void TrojanAdaptation::validate() const {
  require(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
  require(backoff_ratio > 0.0 && backoff_ratio < 1.0,
          "backoff_ratio must be in (0, 1)");
  require(max_on_epochs >= 1, "max_on_epochs must be >= 1");
  require(hold_off_epochs >= 1, "hold_off_epochs must be >= 1");
}

void TrojanConfig::validate() const {
  require(victim_scale >= 0.005 && victim_scale <= 1.0,
          "victim_scale must be in [0.005, 1] (CONFIG_CMD carries whole "
          "percent)");
  require(attacker_boost >= 1.0 && attacker_boost <= 655.35,
          "attacker_boost must be in [1, 655.35] (CONFIG_CMD carries at "
          "most 65535%)");
  check_at("adapt.", [&] { adapt.validate(); });
}

void encode_config(const TrojanConfig& cfg, noc::Packet& pkt) {
  pkt.type = noc::PacketType::kConfigCmd;
  std::uint32_t payload = 0;
  if (cfg.active) payload |= 1U;
  if (cfg.attenuate_victims) payload |= 2U;
  if (cfg.boost_attackers) payload |= 4U;
  const auto scale_pct = static_cast<std::uint32_t>(std::clamp(
      std::lround(cfg.victim_scale * 100.0), 0L, 255L));
  const auto boost_pct = static_cast<std::uint32_t>(std::clamp(
      std::lround(cfg.attacker_boost * 100.0), 0L, 65535L));
  payload |= scale_pct << 8;
  payload |= boost_pct << 16;
  pkt.payload = payload;
  pkt.options.clear();
  pkt.options.push_back(cfg.global_manager);
  for (const NodeId a : cfg.attacker_agents) pkt.options.push_back(a);
}

std::optional<TrojanConfig> decode_config(const noc::Packet& pkt) {
  if (pkt.type != noc::PacketType::kConfigCmd) return std::nullopt;
  if (pkt.options.empty()) return std::nullopt;
  TrojanConfig cfg;
  cfg.active = (pkt.payload & 1U) != 0;
  cfg.attenuate_victims = (pkt.payload & 2U) != 0;
  cfg.boost_attackers = (pkt.payload & 4U) != 0;
  cfg.victim_scale = static_cast<double>((pkt.payload >> 8) & 0xFFU) / 100.0;
  cfg.attacker_boost = static_cast<double>(pkt.payload >> 16) / 100.0;
  cfg.global_manager = pkt.options[0];
  cfg.attacker_agents.assign(pkt.options.begin() + 1, pkt.options.end());
  return cfg;
}

}  // namespace htpb::core
