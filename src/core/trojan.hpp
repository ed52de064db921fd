// The hardware Trojan of Sec. III: a handful of comparators and two
// registers sitting between a router's input buffer and its routing
// computation (Fig. 2). It latches CONFIG_CMD packets and, when active,
// rewrites the payload of POWER_REQ packets heading to the global manager
// whose source is not one of the attacker's agents.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "core/trojan_config.hpp"
#include "noc/inspector.hpp"

namespace htpb::core {

struct TrojanStats {
  std::uint64_t config_packets_seen = 0;
  std::uint64_t power_requests_seen = 0;
  std::uint64_t victim_requests_modified = 0;
  std::uint64_t attacker_requests_boosted = 0;

  friend bool operator==(const TrojanStats&, const TrojanStats&) = default;
};

class HardwareTrojan final : public noc::PacketInspector {
 public:
  explicit HardwareTrojan(NodeId host_router) : host_(host_router) {}

  // -- PacketInspector -----------------------------------------------------
  void inspect(noc::Packet& pkt, NodeId router, Cycle now) override;

  // -- observability (test/bench side; real hardware exposes none of this)
  [[nodiscard]] NodeId host() const noexcept { return host_; }
  [[nodiscard]] bool configured() const noexcept {
    return gm_ != kInvalidNode;
  }
  [[nodiscard]] bool active() const noexcept { return active_; }
  [[nodiscard]] NodeId global_manager() const noexcept { return gm_; }
  [[nodiscard]] const std::vector<NodeId>& attacker_agents() const noexcept {
    return attackers_;
  }
  [[nodiscard]] const TrojanStats& stats() const noexcept { return stats_; }

 private:
  [[nodiscard]] bool is_attacker(NodeId node) const noexcept {
    return std::find(attackers_.begin(), attackers_.end(), node) !=
           attackers_.end();
  }

  void latch_config(const noc::Packet& pkt);
  void tamper(noc::Packet& pkt);

  NodeId host_;
  // "Two registers" of Fig. 2a: the global manager id and the attacker
  // agent ids, plus the activation/mode state.
  NodeId gm_ = kInvalidNode;
  std::vector<NodeId> attackers_;
  bool active_ = false;
  bool attenuate_victims_ = true;
  bool boost_attackers_ = true;
  double victim_scale_ = 0.125;
  double attacker_boost_ = 4.0;
  TrojanStats stats_;
};

}  // namespace htpb::core
