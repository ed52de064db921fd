#include "system/system_config.hpp"

#include <limits>
#include <stdexcept>
#include <string>

namespace htpb::system {

void SystemConfig::validate() const {
  if (width < 2 || height < 2 ||
      static_cast<long long>(width) * height >
          std::numeric_limits<int>::max()) {
    throw std::invalid_argument(
        "SystemConfig: width x height must be at least 2x2 and its node "
        "count must fit int (got " +
        std::to_string(width) + "x" + std::to_string(height) + ")");
  }
  if (gm_node.has_value() &&
      *gm_node >= static_cast<NodeId>(node_count())) {
    throw std::invalid_argument(
        "SystemConfig: gm_node " + std::to_string(*gm_node) +
        " outside the " + std::to_string(width) + "x" +
        std::to_string(height) + " mesh");
  }
}

SystemConfig SystemConfig::with_mesh(int width, int height) {
  SystemConfig cfg;
  cfg.width = width;
  cfg.height = height;
  cfg.validate();
  return cfg;
}

}  // namespace htpb::system
