// Wire format of the attacker's CONFIG_CMD packet (paper Fig. 1b).
//
// The paper packs the global-manager id and the activation signal into the
// 32-bit type word. Our Packet keeps the type enum clean, so the same
// information rides in the payload word and the OPTIONS field:
//   payload bits:  0     activation signal (1 = attack on)
//                  1     attenuate-victims mode enable
//                  2     boost-attackers mode enable
//                  8-15  victim scale, percent (payload' = payload * s/100)
//                  16-31 attacker boost, percent (payload' = payload * b/100)
//   options[0]   : global manager node id
//   options[1..] : attacker agent node ids
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "noc/packet.hpp"

namespace htpb::core {

/// Software-side duty-cycle adaptation of the attacker agent (an
/// extension of the paper's Sec. III-B activation control, closing the
/// loop against a responding defender). The agent watches its own cores'
/// POWER_GRANT stream: while OFF it learns an EWMA reference of the
/// grants an honest-looking core receives; while ON it compares the live
/// grant against that reference and backs off -- toggling the Trojans OFF
/// via CONFIG_CMD -- when grants shrink (a sanction landed) or when the
/// ON-streak would reach a streak-confirmed detector's threshold. These
/// knobs live in the agent, not on the wire: encode_config/decode_config
/// carry only the activation state the agent decides on.
struct TrojanAdaptation {
  bool enabled = false;
  /// EWMA smoothing of the OFF-epoch grant reference.
  double alpha = 0.5;
  /// Back off when an ON-epoch grant drops below ratio x reference.
  double backoff_ratio = 0.7;
  /// Voluntary OFF after this many consecutive ON epochs (staying under a
  /// detector's confirm_epochs evades streak confirmation).
  int max_on_epochs = 1;
  /// OFF epochs held after a voluntary backoff; doubled after a detected
  /// sanction.
  int hold_off_epochs = 1;

  /// Throws std::invalid_argument naming the out-of-range member. Holds
  /// while disabled too: a caller may switch the agent on later.
  void validate() const;

  friend bool operator==(const TrojanAdaptation&,
                         const TrojanAdaptation&) = default;

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f("enabled", s.enabled);
    f("alpha", s.alpha);
    f("backoff_ratio", s.backoff_ratio);
    f("max_on_epochs", s.max_on_epochs);
    f("hold_off_epochs", s.hold_off_epochs);
  }
};

struct TrojanConfig {
  bool active = true;
  bool attenuate_victims = true;
  bool boost_attackers = true;
  /// Victim requests are multiplied by this (0 < scale <= 1).
  double victim_scale = 0.125;
  /// Attacker requests are multiplied by this (>= 1).
  double attacker_boost = 4.0;
  NodeId global_manager = kInvalidNode;
  std::vector<NodeId> attacker_agents;
  TrojanAdaptation adapt;

  /// Throws std::invalid_argument naming the out-of-range member (adapt
  /// included). The scales must reach the wire unclamped and nonzero:
  /// below 0.005 a victim scale encodes as 0%, and the boost field holds
  /// at most 65535%.
  void validate() const;
};

/// Encodes the configuration into payload + options of a CONFIG_CMD packet.
void encode_config(const TrojanConfig& cfg, noc::Packet& pkt);

/// Decodes a CONFIG_CMD packet. Returns std::nullopt for malformed frames
/// (wrong type, missing options) -- a hardware Trojan must never wedge on
/// garbage, it just ignores it.
[[nodiscard]] std::optional<TrojanConfig> decode_config(const noc::Packet& pkt);

}  // namespace htpb::core
