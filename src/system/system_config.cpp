#include "system/system_config.hpp"

#include <stdexcept>
#include <string>

#include "common/geometry.hpp"
#include "common/validate.hpp"

namespace htpb::system {

NodeId SystemConfig::resolved_gm_node() const {
  if (gm_node.has_value()) return *gm_node;
  const MeshGeometry geom(width, height);
  return gm_placement == GmPlacement::kCenter
             ? geom.id_of(geom.center())
             : geom.id_of(MeshGeometry::corner());
}

void SystemConfig::validate() const {
  if (width < 2 || height < 2 ||
      static_cast<long long>(width) * height > kMaxNodes) {
    throw std::invalid_argument(
        "width x height must be at least 2x2 and at most " +
        std::to_string(kMaxNodes) + " nodes (got " + std::to_string(width) +
        "x" + std::to_string(height) + ")");
  }
  if (gm_node.has_value() &&
      *gm_node >= static_cast<NodeId>(node_count())) {
    throw std::invalid_argument(
        "gm_node " + std::to_string(*gm_node) + " outside the " +
        std::to_string(width) + "x" + std::to_string(height) + " mesh");
  }
  if (epoch_cycles <= resolved_collect_window() ||
      epoch_cycles > kMaxEpochCycles) {
    throw std::invalid_argument(
        "epoch_cycles must exceed the collect window (" +
        std::to_string(resolved_collect_window()) + ") and be at most " +
        std::to_string(kMaxEpochCycles) + " (got " +
        std::to_string(epoch_cycles) + ")");
  }
  require(budget_fraction > 0.0 && budget_fraction <= 1.0,
          "budget_fraction must be in (0, 1]");
  if (guard.has_value()) check_at("guard.", [&] { guard->validate(); });
}

}  // namespace htpb::system
