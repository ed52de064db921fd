// Deterministic XY dimension-order routing (Table I): the router asks for
// an output port for each head flit, and the analytic infection-rate
// estimator asks which routers a route crosses.
#pragma once

#include "common/geometry.hpp"
#include "noc/direction.hpp"

namespace htpb::noc {

/// The XY output port at `here` for a packet bound to `dst`: exhaust X
/// first, then Y; kLocal when here == dst.
[[nodiscard]] Direction xy_route(Coord here, Coord dst) noexcept;

/// True iff the XY route from src to dst passes through `via` (inclusive
/// of endpoints). Used by the analytic infection-rate estimator.
[[nodiscard]] bool xy_route_passes_through(Coord src, Coord dst, Coord via);

}  // namespace htpb::noc
