#include "noc/network.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hpp"
#include "sim/engine.hpp"

namespace htpb::noc {
namespace {

struct NetFixture {
  sim::Engine engine;
  MeshGeometry geom;
  NocConfig cfg;
  MeshNetwork net;

  explicit NetFixture(int w = 4, int h = 4)
      : geom(w, h), cfg{}, net(engine, geom, cfg) {}
};

TEST(Network, DeliversAcrossDiagonal) {
  NetFixture f;
  int received = 0;
  f.net.set_handler(15, [&](const Packet& p) {
    EXPECT_EQ(p.src, 0U);
    EXPECT_EQ(p.dst, 15U);
    EXPECT_EQ(p.payload, 777U);
    ++received;
  });
  f.net.send(f.net.make_packet(0, 15, PacketType::kPowerRequest, 777));
  f.engine.run_cycles(100);
  EXPECT_EQ(received, 1);
  EXPECT_TRUE(f.net.idle());
}

TEST(Network, LocalLoopbackBypassesMesh) {
  NetFixture f;
  int received = 0;
  f.net.set_handler(5, [&](const Packet& p) {
    EXPECT_EQ(p.delivered - p.birth, 1U);
    ++received;
  });
  f.net.send(f.net.make_packet(5, 5, PacketType::kPowerRequest, 10));
  f.engine.run_cycles(5);
  EXPECT_EQ(received, 1);
  EXPECT_EQ(f.net.total_router_stats().flits_forwarded, 0U);
}

TEST(Network, LatencyGrowsWithDistance) {
  NetFixture near_f;
  NetFixture far_f;
  Cycle lat_near = 0;
  Cycle lat_far = 0;
  near_f.net.set_handler(1, [&](const Packet& p) {
    lat_near = p.delivered - p.birth;
  });
  far_f.net.set_handler(15, [&](const Packet& p) {
    lat_far = p.delivered - p.birth;
  });
  near_f.net.send(near_f.net.make_packet(0, 1, PacketType::kMemReadReq));
  far_f.net.send(far_f.net.make_packet(0, 15, PacketType::kMemReadReq));
  near_f.engine.run_cycles(100);
  far_f.engine.run_cycles(100);
  ASSERT_GT(lat_near, 0U);
  ASSERT_GT(lat_far, 0U);
  EXPECT_GT(lat_far, lat_near);
}

TEST(Network, PerSourceDestinationOrderPreservedWithXy) {
  // XY routing + wormhole: packets of the same class between the same pair
  // must arrive in send order.
  NetFixture f;
  std::vector<std::uint32_t> order;
  f.net.set_handler(12, [&](const Packet& p) { order.push_back(p.payload); });
  for (std::uint32_t i = 0; i < 20; ++i) {
    f.net.send(f.net.make_packet(3, 12, PacketType::kMemReadReq, i));
  }
  f.engine.run_cycles(300);
  ASSERT_EQ(order.size(), 20U);
  for (std::uint32_t i = 0; i < 20; ++i) EXPECT_EQ(order[i], i);
}

TEST(Network, ManyToOneHotspotAllDelivered) {
  NetFixture f;
  int received = 0;
  const NodeId hotspot = 5;
  f.net.set_handler(hotspot, [&](const Packet&) { ++received; });
  int sent = 0;
  for (NodeId src = 0; src < 16; ++src) {
    if (src == hotspot) continue;
    for (int k = 0; k < 5; ++k) {
      f.net.send(f.net.make_packet(src, hotspot, PacketType::kPowerRequest,
                                   static_cast<std::uint32_t>(k)));
      ++sent;
    }
  }
  f.engine.run_cycles(2000);
  EXPECT_EQ(received, sent);
  EXPECT_TRUE(f.net.idle());
}

TEST(Network, RequestReplyEchoStress) {
  // Every delivery triggers a reply on the other VC class; the network must
  // drain without protocol deadlock.
  NetFixture f;
  int replies = 0;
  for (NodeId n = 0; n < 16; ++n) {
    f.net.set_handler(n, [&, n](const Packet& p) {
      if (p.type == PacketType::kMemReadReq) {
        f.net.send(f.net.make_packet(n, p.src, PacketType::kMemReply));
      } else if (p.type == PacketType::kMemReply) {
        ++replies;
      }
    });
  }
  Rng rng(5);
  int sent = 0;
  for (int k = 0; k < 200; ++k) {
    const auto src = static_cast<NodeId>(rng.below(16));
    auto dst = static_cast<NodeId>(rng.below(16));
    if (src == dst) dst = (dst + 1) % 16;
    f.net.send(f.net.make_packet(src, dst, PacketType::kMemReadReq));
    ++sent;
  }
  f.engine.run_cycles(5000);
  EXPECT_EQ(replies, sent);
  EXPECT_TRUE(f.net.idle());
}

TEST(Network, StatsTrackPowerRequestDeliveries) {
  NetFixture f;
  f.net.set_handler(15, [](const Packet&) {});
  f.net.set_handler(14, [](const Packet&) {});
  f.net.send(f.net.make_packet(0, 15, PacketType::kPowerRequest, 5));
  f.net.send(f.net.make_packet(1, 14, PacketType::kMemReadReq));
  f.engine.run_cycles(100);
  EXPECT_EQ(f.net.stats().packets_delivered, 2U);
  EXPECT_EQ(f.net.stats().power_requests_delivered, 1U);
  EXPECT_EQ(f.net.stats().tampered_power_requests_delivered, 0U);
  EXPECT_GT(f.net.stats().latency_power_req.mean(), 0.0);
}

TEST(Network, MakePacketValidatesNodeIds) {
  NetFixture f;
  EXPECT_THROW(f.net.make_packet(0, 99, PacketType::kMemReadReq),
               std::out_of_range);
  EXPECT_THROW(f.net.make_packet(99, 0, PacketType::kMemReadReq),
               std::out_of_range);
}

TEST(Network, PacketIdsAreUnique) {
  NetFixture f;
  auto a = f.net.make_packet(0, 1, PacketType::kMemReadReq);
  auto b = f.net.make_packet(0, 1, PacketType::kMemReadReq);
  EXPECT_NE(a->id, b->id);
}

TEST(Network, WireSizesFollowTableI) {
  NetFixture f;
  EXPECT_EQ(f.net.make_packet(0, 1, PacketType::kMemReply)->size_flits, 5);
  EXPECT_EQ(f.net.make_packet(0, 1, PacketType::kMemReadReq)->size_flits, 1);
  EXPECT_EQ(f.net.make_packet(0, 1, PacketType::kPowerRequest)->size_flits, 2);
  EXPECT_EQ(f.net.make_packet(0, 1, PacketType::kConfigCmd)->size_flits, 2);
}

}  // namespace
}  // namespace htpb::noc
