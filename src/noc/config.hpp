// NoC configuration (Table I of the paper).
#pragma once

#include <cstdint>

namespace htpb::noc {

/// Cap on `vcs` backing the router's inline per-VC state (output-VC
/// registers, one-word masks over all input VCs). Generous vs. Table I's
/// 4 VCs. Input buffers are sized from `vcs` x `vc_depth` at construction.
inline constexpr int kMaxVcs = 8;

struct NocConfig {
  /// Virtual channels per input port (Table I: 4); <= kMaxVcs.
  int vcs = 4;
  /// Buffer depth per VC in flits (Table I / Sec III-D: 5-flit FIFOs);
  /// in [1, 255].
  int vc_depth = 5;
  /// Data packet size in flits (Table I: 5).
  int data_packet_flits = 5;
  /// Meta packet size in flits (Table I: 1).
  int meta_packet_flits = 1;
  /// Command packets (POWER_REQ / CONFIG_CMD): 4x32-bit frame in 72-bit
  /// flits => 2 flits.
  int command_packet_flits = 2;
  /// Router pipeline latency in cycles (Table I: 2).
  int router_latency = 2;
  /// Link traversal latency in cycles (Table I: 1).
  int link_latency = 1;

  [[nodiscard]] int vcs_per_class() const noexcept { return vcs / 2; }
  /// First VC of a class; class 0 -> [0, vcs/2), class 1 -> [vcs/2, vcs).
  [[nodiscard]] int class_base(int vc_class) const noexcept {
    return vc_class == 0 ? 0 : vcs / 2;
  }

  friend bool operator==(const NocConfig&, const NocConfig&) = default;
};

}  // namespace htpb::noc
