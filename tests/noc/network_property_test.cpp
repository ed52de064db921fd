// Property-style sweeps: across mesh sizes and seeds,
// uniform-random traffic must be fully delivered, in bounded time, with no
// buffer-overflow (asserted in Router) and conserved packet counts.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "noc/network.hpp"
#include "sim/engine.hpp"

namespace htpb::noc {
namespace {

struct PropertyParam {
  int width;
  int height;
  std::uint64_t seed;
  int packets;
};

class NetworkPropertyTest : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(NetworkPropertyTest, UniformRandomTrafficFullyDelivered) {
  const auto p = GetParam();
  sim::Engine engine;
  MeshGeometry geom(p.width, p.height);
  MeshNetwork net(engine, geom, NocConfig{});

  std::map<PacketId, int> outstanding;
  int delivered = 0;
  for (NodeId n = 0; n < static_cast<NodeId>(geom.node_count()); ++n) {
    net.set_handler(n, [&, n](const Packet& pkt) {
      EXPECT_EQ(pkt.dst, n) << "misrouted packet";
      EXPECT_EQ(outstanding.count(pkt.id), 1U);
      outstanding.erase(pkt.id);
      ++delivered;
    });
  }

  Rng rng(p.seed);
  const auto nodes = static_cast<std::uint64_t>(geom.node_count());
  const PacketType kinds[] = {PacketType::kMemReadReq, PacketType::kMemReply,
                              PacketType::kPowerRequest,
                              PacketType::kWriteback};
  for (int i = 0; i < p.packets; ++i) {
    const auto src = static_cast<NodeId>(rng.below(nodes));
    auto dst = static_cast<NodeId>(rng.below(nodes));
    if (dst == src) dst = static_cast<NodeId>((dst + 1) % nodes);
    auto pkt = net.make_packet(src, dst, kinds[rng.below(4)]);
    outstanding[pkt->id] = 1;
    net.send(std::move(pkt));
  }

  // Generous drain budget; deadlock or loss shows up as a miss here.
  engine.run_cycles(static_cast<Cycle>(4000 + 60 * p.packets));
  EXPECT_EQ(delivered, p.packets);
  EXPECT_TRUE(outstanding.empty());
  EXPECT_TRUE(net.idle());

  // Conservation: every delivered packet was also counted by the mesh.
  EXPECT_EQ(net.stats().packets_delivered, static_cast<std::uint64_t>(delivered));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NetworkPropertyTest,
    ::testing::Values(
        PropertyParam{2, 2, 1, 60},
        PropertyParam{4, 4, 2, 200},
        PropertyParam{4, 4, 3, 200},
        PropertyParam{8, 8, 4, 400},
        PropertyParam{8, 4, 5, 250},
        PropertyParam{1, 8, 6, 100},
        PropertyParam{8, 1, 7, 100},
        PropertyParam{16, 16, 11, 600}));

class LatencyBoundTest : public ::testing::TestWithParam<int> {};

TEST_P(LatencyBoundTest, ZeroLoadLatencyMatchesAnalyticalModel) {
  // Unloaded network: latency of a single packet must equal
  // hops * (router_latency + link_latency) + router+link at source/sink
  // + serialization (flits - 1).
  const int size = GetParam();
  sim::Engine engine;
  MeshGeometry geom(size, size);
  const NocConfig cfg;
  MeshNetwork net(engine, geom, cfg);

  const NodeId src = 0;
  const NodeId dst = static_cast<NodeId>(geom.node_count() - 1);
  const int hops = geom.hop_distance(src, dst);

  Cycle measured = 0;
  net.set_handler(dst, [&](const Packet& p) { measured = p.delivered - p.birth; });
  net.send(net.make_packet(src, dst, PacketType::kMemReadReq));
  engine.run_cycles(static_cast<Cycle>(20 + 5 * hops));

  // Each router on the path costs router_latency cycles + 1 cycle of link,
  // there are hops+1 routers; NI injection adds 1 link.
  const Cycle expected =
      static_cast<Cycle>((hops + 1) * (cfg.router_latency + cfg.link_latency) +
                         cfg.link_latency);
  EXPECT_EQ(measured, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, LatencyBoundTest, ::testing::Values(2, 4, 8, 16));

}  // namespace
}  // namespace htpb::noc
