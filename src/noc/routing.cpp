#include "noc/routing.hpp"

namespace htpb::noc {

Direction xy_route(Coord here, Coord dst) noexcept {
  if (dst.x > here.x) return Direction::kEast;
  if (dst.x < here.x) return Direction::kWest;
  if (dst.y > here.y) return Direction::kSouth;
  if (dst.y < here.y) return Direction::kNorth;
  return Direction::kLocal;
}

bool xy_route_passes_through(Coord src, Coord dst, Coord via) {
  // XY: move along x at y == src.y, then along y at x == dst.x.
  const int xlo = src.x < dst.x ? src.x : dst.x;
  const int xhi = src.x < dst.x ? dst.x : src.x;
  if (via.y == src.y && via.x >= xlo && via.x <= xhi) return true;
  const int ylo = src.y < dst.y ? src.y : dst.y;
  const int yhi = src.y < dst.y ? dst.y : src.y;
  if (via.x == dst.x && via.y >= ylo && via.y <= yhi) return true;
  return false;
}

}  // namespace htpb::noc
