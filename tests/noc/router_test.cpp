// Router-level behaviour observed through a tiny 2x1 network: pipeline
// latency, credit backpressure, inspector invocation point.
#include "noc/router.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "noc/network.hpp"
#include "sim/engine.hpp"

namespace htpb::noc {
namespace {

struct TwoNodeFixture {
  sim::Engine engine;
  MeshGeometry geom{2, 1};
  NocConfig cfg;
  MeshNetwork net;

  TwoNodeFixture() : net(engine, geom, cfg) {}
};

TEST(Router, SingleHopLatencyMatchesTableI) {
  // Table I: router 2 cycles, link 1 cycle. One hop = NI->router link (1) +
  // router pipeline (2) + router->router link (1) + router pipeline (2) +
  // router->NI link (1), plus serialization of the remaining flits.
  TwoNodeFixture f;
  std::vector<Cycle> delivered;
  f.net.set_handler(1, [&](const Packet& p) {
    delivered.push_back(p.delivered - p.birth);
  });
  auto pkt = f.net.make_packet(0, 1, PacketType::kMemReadReq);  // 1 flit
  f.net.send(std::move(pkt));
  f.engine.run_cycles(30);
  ASSERT_EQ(delivered.size(), 1U);
  // Head-only packet: measured end-to-end latency for one hop.
  EXPECT_EQ(delivered[0], 7U);
}

TEST(Router, SerializationAddsOneCyclePerExtraFlit) {
  TwoNodeFixture f;
  std::vector<Cycle> delivered;
  f.net.set_handler(1, [&](const Packet& p) {
    delivered.push_back(p.delivered - p.birth);
  });
  f.net.send(f.net.make_packet(0, 1, PacketType::kMemReply));  // 5 flits
  f.engine.run_cycles(40);
  ASSERT_EQ(delivered.size(), 1U);
  EXPECT_EQ(delivered[0], 7U + 4U);
}

TEST(Router, BackToBackPacketsPipeline) {
  TwoNodeFixture f;
  int received = 0;
  f.net.set_handler(1, [&](const Packet&) { ++received; });
  for (int i = 0; i < 10; ++i) {
    f.net.send(f.net.make_packet(0, 1, PacketType::kMemReadReq));
  }
  f.engine.run_cycles(60);
  EXPECT_EQ(received, 10);
}

TEST(Router, CreditBackpressureNeverOverflowsBuffers) {
  // Flood one destination from the other node; buffer occupancy must never
  // exceed the configured depth (assert inside accept_flit also guards).
  TwoNodeFixture f;
  int received = 0;
  f.net.set_handler(1, [&](const Packet&) { ++received; });
  for (int i = 0; i < 50; ++i) {
    f.net.send(f.net.make_packet(0, 1, PacketType::kMemReply));
  }
  for (int c = 0; c < 600; ++c) {
    f.engine.run_cycles(1);
    for (NodeId n = 0; n < 2; ++n) {
      for (int p = 0; p < kNumPorts; ++p) {
        for (int v = 0; v < f.cfg.vcs; ++v) {
          EXPECT_LE(f.net.router(n).input_occupancy(
                        static_cast<Direction>(p), v),
                    f.cfg.vc_depth);
        }
      }
    }
  }
  EXPECT_EQ(received, 50);
}

class RecordingInspector final : public PacketInspector {
 public:
  void inspect(Packet& pkt, NodeId router, Cycle now) override {
    calls.push_back({pkt.id, router, now});
  }
  struct Call {
    PacketId pkt;
    NodeId router;
    Cycle when;
  };
  std::vector<Call> calls;
};

TEST(Router, InspectorRunsOncePerRouterPerPacket) {
  TwoNodeFixture f;
  RecordingInspector insp;
  f.net.add_inspector(0, &insp);
  f.net.add_inspector(1, &insp);
  f.net.set_handler(1, [](const Packet&) {});
  auto pkt = f.net.make_packet(0, 1, PacketType::kPowerRequest, 123);
  const PacketId id = pkt->id;
  f.net.send(std::move(pkt));
  f.engine.run_cycles(30);
  ASSERT_EQ(insp.calls.size(), 2U);
  EXPECT_EQ(insp.calls[0].pkt, id);
  EXPECT_EQ(insp.calls[0].router, 0U);
  EXPECT_EQ(insp.calls[1].router, 1U);
  EXPECT_LT(insp.calls[0].when, insp.calls[1].when);
}

class TamperingInspector final : public PacketInspector {
 public:
  void inspect(Packet& pkt, NodeId, Cycle) override {
    if (pkt.type == PacketType::kPowerRequest) {
      pkt.original_payload = pkt.payload;
      pkt.payload /= 2;
      pkt.tampered = true;
    }
  }
};

TEST(Router, InspectorCanTamperPayloadInFlight) {
  TwoNodeFixture f;
  TamperingInspector trojan;
  f.net.add_inspector(0, &trojan);
  std::uint32_t received_payload = 0;
  bool tampered = false;
  f.net.set_handler(1, [&](const Packet& p) {
    received_payload = p.payload;
    tampered = p.tampered;
  });
  f.net.send(f.net.make_packet(0, 1, PacketType::kPowerRequest, 1000));
  f.engine.run_cycles(30);
  EXPECT_EQ(received_payload, 500U);
  EXPECT_TRUE(tampered);
  EXPECT_EQ(f.net.stats().tampered_power_requests_delivered, 1U);
}

TEST(Router, StatsCountPowerRequests) {
  TwoNodeFixture f;
  f.net.set_handler(1, [](const Packet&) {});
  f.net.send(f.net.make_packet(0, 1, PacketType::kPowerRequest, 1));
  f.net.send(f.net.make_packet(0, 1, PacketType::kMemReadReq));
  f.engine.run_cycles(40);
  EXPECT_EQ(f.net.router(0).stats().power_requests_seen, 1U);
  EXPECT_EQ(f.net.router(1).stats().power_requests_seen, 1U);
}

TEST(Router, DisconnectedPortsAtMeshEdge) {
  TwoNodeFixture f;
  EXPECT_FALSE(f.net.router(0).port_connected(Direction::kWest));
  EXPECT_FALSE(f.net.router(0).port_connected(Direction::kNorth));
  EXPECT_FALSE(f.net.router(0).port_connected(Direction::kSouth));
  EXPECT_TRUE(f.net.router(0).port_connected(Direction::kEast));
  EXPECT_TRUE(f.net.router(1).port_connected(Direction::kWest));
  EXPECT_FALSE(f.net.router(1).port_connected(Direction::kEast));
}

TEST(Router, RejectsOddVcCount) {
  MeshGeometry geom(2, 1);
  NocConfig cfg;
  cfg.vcs = 3;
  EXPECT_THROW(Router(0, geom, cfg), std::invalid_argument);
}

TEST(Router, RejectsVcDepthBelowOne) {
  // Depth 0 used to build a network whose NIs never got a credit: every
  // packet sat queued forever without an error.
  MeshGeometry geom(2, 1);
  for (const int depth : {0, -1}) {
    NocConfig cfg;
    cfg.vc_depth = depth;
    EXPECT_THROW(Router(0, geom, cfg), std::invalid_argument);
    sim::Engine engine;
    EXPECT_THROW(MeshNetwork(engine, geom, cfg), std::invalid_argument);
  }
}

TEST(Router, RejectsSizesBeyondTheVcRegisters) {
  // Ring head/size registers are one byte; per-VC state is sized by
  // kMaxVcs.
  MeshGeometry geom(2, 1);
  NocConfig cfg;
  cfg.vc_depth = 255;
  EXPECT_NO_THROW(Router(0, geom, cfg));
  cfg.vc_depth = 256;
  EXPECT_THROW(Router(0, geom, cfg), std::invalid_argument);
  cfg.vc_depth = 5;
  cfg.vcs = kMaxVcs;
  EXPECT_NO_THROW(Router(0, geom, cfg));
  cfg.vcs = kMaxVcs + 2;
  EXPECT_THROW(Router(0, geom, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace htpb::noc
