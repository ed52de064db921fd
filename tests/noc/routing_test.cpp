#include "noc/routing.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace htpb::noc {
namespace {

TEST(XyRouting, ExhaustsXFirst) {
  EXPECT_EQ(xy_route({0, 0}, {3, 3}), Direction::kEast);
  EXPECT_EQ(xy_route({3, 0}, {0, 3}), Direction::kWest);
  EXPECT_EQ(xy_route({3, 0}, {3, 3}), Direction::kSouth);
  EXPECT_EQ(xy_route({3, 3}, {3, 0}), Direction::kNorth);
  EXPECT_EQ(xy_route({2, 2}, {2, 2}), Direction::kLocal);
}

TEST(XyRouting, FullPathIsMinimalAndReachesDestination) {
  Coord pos{1, 6};
  const Coord dst{7, 2};
  int hops = 0;
  while (pos != dst) {
    const Direction d = xy_route(pos, dst);
    ASSERT_NE(d, Direction::kLocal);
    pos = step(pos, d);
    ASSERT_LE(++hops, 64) << "routing loop";
  }
  EXPECT_EQ(hops, manhattan_distance(Coord{1, 6}, dst));
}

TEST(XyPassThrough, HorizontalThenVerticalSegments) {
  // src (1,1) -> dst (4,3): X-leg on row y=1 from x=1..4, Y-leg on column
  // x=4 from y=1..3.
  const Coord src{1, 1};
  const Coord dst{4, 3};
  EXPECT_TRUE(xy_route_passes_through(src, dst, {2, 1}));
  EXPECT_TRUE(xy_route_passes_through(src, dst, {4, 2}));
  EXPECT_TRUE(xy_route_passes_through(src, dst, src));
  EXPECT_TRUE(xy_route_passes_through(src, dst, dst));
  EXPECT_FALSE(xy_route_passes_through(src, dst, {2, 2}));
  EXPECT_FALSE(xy_route_passes_through(src, dst, {1, 3}));
  EXPECT_FALSE(xy_route_passes_through(src, dst, {5, 1}));
}

TEST(XyPassThrough, MatchesStepwiseSimulation) {
  Rng rng(21);
  for (int trial = 0; trial < 300; ++trial) {
    const Coord src{static_cast<int>(rng.below(6)),
                    static_cast<int>(rng.below(6))};
    const Coord dst{static_cast<int>(rng.below(6)),
                    static_cast<int>(rng.below(6))};
    const Coord via{static_cast<int>(rng.below(6)),
                    static_cast<int>(rng.below(6))};
    bool hit = false;
    Coord pos = src;
    if (pos == via) hit = true;
    while (pos != dst) {
      pos = step(pos, xy_route(pos, dst));
      if (pos == via) hit = true;
    }
    EXPECT_EQ(xy_route_passes_through(src, dst, via), hit)
        << "src=(" << src.x << "," << src.y << ") dst=(" << dst.x << ","
        << dst.y << ") via=(" << via.x << "," << via.y << ")";
  }
}

}  // namespace
}  // namespace htpb::noc
