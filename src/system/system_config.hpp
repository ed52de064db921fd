// Whole-chip configuration -- the programmatic form of the paper's
// Table I, plus the budgeting-epoch parameters.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/types.hpp"
#include "cpu/frequency.hpp"
#include "mem/l1_cache.hpp"
#include "mem/l2_bank.hpp"
#include "noc/config.hpp"
#include "power/budgeter.hpp"
#include "power/defense.hpp"
#include "power/power_model.hpp"

namespace htpb::system {

enum class GmPlacement {
  kCenter,  ///< Paper default for Figs. 4-6.
  kCorner,  ///< The "global manager in one corner" arm of Fig. 3.
};

/// How far ManyCoreSystem::run_epochs runs its final epoch.
enum class Horizon {
  kFull,  ///< every epoch to its end
  /// Stop on the cycle after the last kSystemAllocate the full run would
  /// fire: every manager-side record (epoch history, detector, response
  /// engine, request trace) is final there; the cores' counters are not.
  kLastWindow,
};

struct SystemConfig {
  /// Node-count ceiling: 8x the paper's largest chip (512 cores) and 4x
  /// the 32x32 mesh bench_noc_hotpath runs. A chip past it costs memory
  /// per tile that no experiment here needs.
  static constexpr int kMaxNodes = 4096;
  /// Epoch-length ceiling: 500x the registry's longest epoch (2000
  /// cycles). Simulated cycles per epoch are paid in wall time.
  static constexpr Cycle kMaxEpochCycles = 1'000'000;

  int width = 16;
  int height = 16;

  noc::NocConfig noc;
  mem::L1Config l1;
  mem::L2Config l2;
  cpu::FrequencyTable freqs;
  power::CorePowerModel power_model;

  power::BudgeterKind budgeter = power::BudgeterKind::kProportional;
  /// When set, wraps the budgeter in the request-clamping mitigation
  /// (power::GuardedBudgeter) with this trust band -- the guard arms of
  /// the defense-roc and defense-evaluation scenarios.
  std::optional<power::DetectorConfig> guard;
  /// Chip power budget as a fraction of the all-cores-at-max demand.
  /// Below 1.0 creates the contention that power budgeting exists to
  /// arbitrate (and that the Trojan exploits).
  double budget_fraction = 0.50;

  /// Budgeting epoch length.
  Cycle epoch_cycles = 2000;
  /// Cycle of the first budgeting epoch (power-on settle time). The
  /// default leaves just enough room for cycle-0 events; raise it when an
  /// experiment needs the attacker's CONFIG_CMD broadcast to complete
  /// before the first POWER_REQ flies (attack-from-epoch-0 scenarios).
  Cycle first_epoch_cycle = 10;

  GmPlacement gm_placement = GmPlacement::kCenter;
  /// Overrides gm_placement when set.
  std::optional<NodeId> gm_node;

  std::uint64_t seed = 1;

  [[nodiscard]] int node_count() const noexcept { return width * height; }

  /// The manager's request-collection window, scaled with the mesh
  /// diameter.
  [[nodiscard]] Cycle resolved_collect_window() const noexcept {
    const auto diameter = static_cast<Cycle>(width + height);
    return 4 * diameter * static_cast<Cycle>(noc.router_latency +
                                             noc.link_latency) +
           200;
  }

  /// The global manager's node: gm_node when pinned, else the mesh center
  /// or the (0,0) corner per gm_placement. Needs a valid shape.
  [[nodiscard]] NodeId resolved_gm_node() const;

  /// The chip rules; throws std::invalid_argument naming the member: a
  /// mesh of at least 2x2 (XY routing and the GM presets need a real 2D
  /// mesh) of at most kMaxNodes nodes, a pinned gm_node inside it, an
  /// epoch longer than its collect window and at most kMaxEpochCycles,
  /// budget_fraction in (0, 1], and a valid guard. ManyCoreSystem and
  /// CampaignConfig call it.
  void validate() const;

  friend bool operator==(const SystemConfig&, const SystemConfig&) = default;
};

}  // namespace htpb::system
