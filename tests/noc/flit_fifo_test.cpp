// Router input-VC rings, sized at run time from vcs x vc_depth: FIFO order
// across wraparound, occupancy bounded by the credit loop, popped slots
// releasing their packets, and a mid-flight checkpoint with wrapped ring
// heads. Every test runs at vc_depth 3 and 5 and vcs 2 and 8.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "noc/network.hpp"
#include "noc/router.hpp"
#include "sim/engine.hpp"

namespace htpb::noc {
namespace {

NocConfig sized(int vcs, int depth) {
  NocConfig cfg;
  cfg.vcs = vcs;
  cfg.vc_depth = depth;
  return cfg;
}

/// Router 0 of a 2x1 mesh driven by hand: flits enter its local port, and
/// everything routes east into a sink that returns each credit at once.
struct Rig {
  MeshGeometry geom{2, 1};
  NocConfig cfg;
  Router router;
  PacketPool pool;
  std::map<PacketId, PacketPtr> by_id;  // resolver for load_state
  std::vector<LinkTransfer> transfers;
  std::vector<CreditReturn> credits;
  std::vector<std::tuple<PacketId, int, Cycle>> out;  // (id, flit, cycle)
  int pops = 0;
  PacketId next_id = 1;

  Rig(int vcs, int depth)
      : cfg(sized(vcs, depth)), router(0, geom, cfg) {
    router.set_port_connected(Direction::kEast, true);
  }

  /// Buffers a `flits`-flit packet in local input VC `vc`.
  void push_packet(int vc, int flits, Cycle now) {
    PacketPtr pkt = pool.allocate();
    pkt->id = next_id++;
    pkt->src = 0;
    pkt->dst = 1;
    pkt->type = PacketType::kMemReadReq;
    pkt->size_flits = flits;
    by_id[pkt->id] = pkt;
    std::vector<Flit> buffer;
    make_flits_into(pkt, buffer);
    for (Flit& f : buffer) {
      f.vc = static_cast<std::int8_t>(vc);
      router.accept_flit(Direction::kLocal, std::move(f), now);
    }
  }

  void cycle(Cycle now) {
    router.tick_sa_st(now, transfers, credits);
    if (router.rc_pending()) router.tick_rc_va(now);
    for (LinkTransfer& t : transfers) {
      out.emplace_back(t.flit.pkt->id, t.flit.index, now);
      router.add_output_credit(t.out_port, t.flit.vc);
    }
    pops += static_cast<int>(credits.size());
    transfers.clear();
    credits.clear();
  }
};

class RingSizes : public ::testing::TestWithParam<std::pair<int, int>> {};

INSTANTIATE_TEST_SUITE_P(
    VcsByDepth, RingSizes,
    ::testing::Values(std::pair{2, 3}, std::pair{2, 5}, std::pair{8, 3},
                      std::pair{8, 5}),
    [](const auto& info) {
      return "vcs" + std::to_string(info.param.first) + "_depth" +
             std::to_string(info.param.second);
    });

TEST_P(RingSizes, FifoOrderAcrossWraparound) {
  const auto [vcs, depth] = GetParam();
  Rig rig(vcs, depth);
  // Single-flit packets through the last VC, topped up whenever a slot
  // frees: its ring head walks around many times.
  const int last = vcs - 1;
  const int total = 7 * depth + 1;
  int sent = 0;
  for (Cycle now = 0; rig.out.size() < static_cast<std::size_t>(total);
       ++now) {
    ASSERT_LT(now, 1000U);
    while (sent < total &&
           rig.router.input_occupancy(Direction::kLocal, last) < depth) {
      rig.push_packet(last, 1, now);
      ++sent;
    }
    rig.cycle(now);
  }
  for (int i = 0; i < total; ++i) {
    EXPECT_EQ(std::get<0>(rig.out[static_cast<std::size_t>(i)]),
              static_cast<PacketId>(i + 1));
  }
  EXPECT_EQ(rig.router.buffered_flits(), 0U);
}

TEST_P(RingSizes, OccupancyNeverExceedsDepthUnderSaturation) {
  const auto [vcs, depth] = GetParam();
  sim::Engine engine;
  MeshNetwork net(engine, MeshGeometry(3, 1), sized(vcs, depth));
  int received = 0;
  net.set_handler(2, [&](const Packet&) { ++received; });
  for (int i = 0; i < 60; ++i) {
    net.send(net.make_packet(0, 2, PacketType::kMemReply));
    net.send(net.make_packet(1, 2, PacketType::kMemReadReq));
  }
  int peak = 0;
  for (int c = 0; c < 2000 && received < 120; ++c) {
    engine.run_cycles(1);
    for (NodeId n = 0; n < 3; ++n) {
      for (int p = 0; p < kNumPorts; ++p) {
        for (int v = 0; v < vcs; ++v) {
          const int occ =
              net.router(n).input_occupancy(static_cast<Direction>(p), v);
          ASSERT_LE(occ, depth);
          peak = std::max(peak, occ);
        }
      }
    }
  }
  EXPECT_EQ(received, 120);
  EXPECT_EQ(peak, depth);  // the flood really filled a buffer
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.packet_pool().live(), 0U);
}

TEST_P(RingSizes, PoppedSlotReleasesItsPacket) {
  const auto [vcs, depth] = GetParam();
  Rig rig(vcs, depth);
  rig.push_packet(0, depth, 0);
  rig.by_id.clear();  // the buffered flits are the only holders now
  EXPECT_EQ(rig.pool.live(), 1U);
  for (Cycle now = 0; rig.router.buffered_flits() != 0; ++now) {
    ASSERT_LT(now, 100U);
    rig.cycle(now);
  }
  // cycle() dropped the transfers it produced; no vacated slot still pins
  // the packet.
  EXPECT_EQ(rig.pool.live(), 0U);
}

TEST_P(RingSizes, MidFlightCheckpointWithWrappedHeads) {
  const int vcs = GetParam().first;
  const int depth = GetParam().second;
  Cycle now = 0;
  // Two-flit packets through VC 0, topped up whenever a packet fits.
  const auto feed = [&](Rig& r) {
    while (r.router.input_occupancy(Direction::kLocal, 0) + 2 <= depth) {
      r.push_packet(0, 2, now);
    }
  };
  Rig a(vcs, depth);
  // Cut once VC 0's ring head sits off slot 0 (pops not a multiple of
  // the depth) with flits still buffered.
  for (;; ++now) {
    ASSERT_LT(now, 200U);
    feed(a);
    a.cycle(now);
    if (a.pops > depth && a.pops % depth != 0 &&
        a.router.buffered_flits() != 0) {
      break;
    }
  }
  ++now;

  Rig b(vcs, depth);
  b.router.load_state(a.router.save_state(),
                      [&](PacketId id) { return a.by_id.at(id); });
  b.next_id = a.next_id;
  EXPECT_EQ(json::dump(b.router.save_state()),
            json::dump(a.router.save_state()));

  // Same inputs from here on: the restored router forwards the same flits
  // on the same cycles.
  a.out.clear();
  for (const Cycle end = now + static_cast<Cycle>(10 * depth); now < end;
       ++now) {
    feed(a);
    feed(b);
    a.cycle(now);
    b.cycle(now);
  }
  EXPECT_FALSE(a.out.empty());
  EXPECT_EQ(a.out, b.out);
  EXPECT_EQ(json::dump(b.router.save_state()),
            json::dump(a.router.save_state()));
}

TEST(RouterRing, LoadStateRejectsVcStateTheRingsCannotHold) {
  Rig a(4, 3);
  a.push_packet(0, 3, 0);
  const json::Value saved = a.router.save_state();
  const auto resolve = [&](PacketId id) { return a.by_id.at(id); };
  const auto load_mutated = [&](auto mutate) {
    json::Value v = saved;
    mutate(v.as_object().find("in")->as_array().at(0).as_object());
    Rig b(4, 3);
    b.router.load_state(v, resolve);
  };
  EXPECT_NO_THROW(load_mutated([](json::Object&) {}));
  EXPECT_THROW(load_mutated([](json::Object& vc) {
                 json::Array& fifo = vc.find("fifo")->as_array();
                 fifo.push_back(fifo.front());  // depth + 1 flits
               }),
               std::runtime_error);
  EXPECT_THROW(load_mutated([](json::Object& vc) { vc["out_port"] = 9; }),
               std::runtime_error);
  EXPECT_THROW(load_mutated([](json::Object& vc) { vc["out_vc"] = 4; }),
               std::runtime_error);
  EXPECT_THROW(load_mutated([](json::Object& vc) {
                 vc["active"] = true;
                 vc["out_vc"] = -1;
               }),
               std::runtime_error);
}

}  // namespace
}  // namespace htpb::noc
