// Golden-stats determinism lock for the NoC core refactors.
//
// Every observable of a fixed-seed run -- per-router counters, network
// counters, the exact per-packet delivery sequence (order + latency), a
// latency histogram, and a whole-campaign outcome -- is folded into an
// FNV-1a fingerprint and compared against constants captured before the
// hot-path refactor (PR 2). "Faster" only counts when these stay
// bit-identical: the active-set scheduler, SA candidate lists, ring FIFOs
// and the packet arena must all be invisible to results.
//
// Regenerate after an *intentional* behaviour change with:
//   HTPB_GOLDEN_DUMP=1 ./tests/noc_golden_stats_test
// and paste the printed constants below, explaining the change in the PR.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/campaign.hpp"
#include "noc/network.hpp"
#include "sim/engine.hpp"
#include "workload/application.hpp"

namespace htpb::noc {
namespace {

// --- captured on the pre-refactor core (seed commit 115225c) ------------
constexpr std::uint64_t kGoldenXy = 0x34ded9a10a5a07dfULL;
constexpr std::uint64_t kGoldenCampaign = 0xb3007d5274eab1a9ULL;
constexpr std::uint64_t kGoldenXyDelivered = 1500;
// ------------------------------------------------------------------------

// --- 10x13 = 130 nodes: the active-node sets span three 64-bit words, the
// last one partial. Captured before the bitset active sets replaced the
// sorted id lists. ------------------------------------------------------
constexpr std::uint64_t kGoldenXyWide = 0xcdfbcfee2ac50109ULL;
// ------------------------------------------------------------------------

class Fingerprint {
 public:
  void add(std::uint64_t v) noexcept {
    h_ ^= v;
    h_ *= 1099511628211ULL;  // FNV-1a 64-bit prime
  }
  void add_double(double d) noexcept {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    add(bits);
  }
  void add_stat(const RunningStat& s) noexcept {
    add(s.count());
    add_double(s.mean());
    add_double(s.variance());
    add_double(s.min());
    add_double(s.max());
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;  // FNV offset basis
};

bool dump_mode() {
  const char* env = std::getenv("HTPB_GOLDEN_DUMP");
  return env != nullptr && env[0] == '1';
}

/// Fixed-seed uniform-random traffic on a mesh, fully drained, every
/// observable folded into one fingerprint. Injection happens outside the
/// engine loop on a precomputed per-cycle schedule so the golden value
/// only depends on the network core, not on tickable ordering.
struct NocGoldenRun {
  std::uint64_t fingerprint = 0;
  std::uint64_t delivered = 0;
};

NocGoldenRun run_noc_golden(int width = 8, int height = 8) {
  sim::Engine engine;
  MeshGeometry geom(width, height);
  MeshNetwork net(engine, geom, NocConfig{});

  Fingerprint fp;
  Histogram latency_hist(0.0, 120.0, 40);
  std::uint64_t delivered = 0;
  for (NodeId n = 0; n < static_cast<NodeId>(geom.node_count()); ++n) {
    net.set_handler(n, [&, n](const Packet& pkt) {
      // The delivery *sequence* is part of the golden: id, endpoint and
      // latency in arrival order. Any reordering breaks the fingerprint.
      ++delivered;
      fp.add(pkt.id);
      fp.add(n);
      fp.add(static_cast<std::uint64_t>(pkt.delivered - pkt.birth));
      latency_hist.add(static_cast<double>(pkt.delivered - pkt.birth));
    });
  }

  Rng traffic_rng(2024);
  const auto nodes = static_cast<std::uint64_t>(geom.node_count());
  constexpr int kPackets = 1500;
  constexpr PacketType kKinds[] = {PacketType::kMemReadReq,
                                   PacketType::kMemReply,
                                   PacketType::kPowerRequest,
                                   PacketType::kWriteback};
  int sent = 0;
  for (Cycle c = 0; sent < kPackets; ++c) {
    // ~3 injections per cycle across the mesh, deterministic schedule.
    for (int k = 0; k < 3 && sent < kPackets; ++k) {
      const auto src = static_cast<NodeId>(traffic_rng.below(nodes));
      auto dst = static_cast<NodeId>(traffic_rng.below(nodes));
      if (dst == src) dst = static_cast<NodeId>((dst + 1) % nodes);
      net.send(net.make_packet(src, dst, kKinds[traffic_rng.below(4)],
                               static_cast<std::uint32_t>(sent)));
      ++sent;
    }
    engine.run_cycles(1);
  }
  engine.run_cycles(4000);  // fixed drain budget, part of the contract
  EXPECT_TRUE(net.idle());

  for (NodeId n = 0; n < static_cast<NodeId>(geom.node_count()); ++n) {
    const RouterStats& rs = net.router(n).stats();
    fp.add(rs.flits_forwarded);
    fp.add(rs.packets_routed);
    fp.add(rs.power_requests_seen);
    fp.add(rs.flits_ejected);
    fp.add(rs.sa_conflict_stalls);
    fp.add(rs.va_stalls);
    const NiStats& ns = net.ni(n).stats();
    fp.add(ns.packets_injected);
    fp.add(ns.packets_delivered);
    fp.add(ns.flits_injected);
    fp.add(ns.inject_queue_peak);
  }
  const NetworkStats& s = net.stats();
  fp.add(s.packets_sent);
  fp.add(s.packets_delivered);
  fp.add(s.power_requests_delivered);
  fp.add(s.tampered_power_requests_delivered);
  fp.add_stat(s.latency_all);
  fp.add_stat(s.latency_power_req);
  fp.add_stat(s.latency_mem);
  for (std::size_t b = 0; b < latency_hist.bucket_count(); ++b) {
    fp.add(latency_hist.bucket(b));
  }
  fp.add(latency_hist.underflow());
  fp.add(latency_hist.overflow());
  return NocGoldenRun{fp.value(), delivered};
}

TEST(GoldenStats, XyRoutingBitIdentical) {
  const NocGoldenRun run = run_noc_golden();
  if (dump_mode()) {
    std::printf("kGoldenXy = 0x%llxULL; delivered = %llu\n",
                static_cast<unsigned long long>(run.fingerprint),
                static_cast<unsigned long long>(run.delivered));
    return;
  }
  EXPECT_EQ(run.delivered, kGoldenXyDelivered);
  EXPECT_EQ(run.fingerprint, kGoldenXy);
}

TEST(GoldenStats, XyRoutingAcrossWordBoundaries) {
  const NocGoldenRun run = run_noc_golden(10, 13);
  if (dump_mode()) {
    std::printf("kGoldenXyWide = 0x%llxULL; delivered = %llu\n",
                static_cast<unsigned long long>(run.fingerprint),
                static_cast<unsigned long long>(run.delivered));
    return;
  }
  EXPECT_EQ(run.delivered, 1500U);
  EXPECT_EQ(run.fingerprint, kGoldenXyWide);
}

TEST(GoldenStats, FullCampaignOutcomeBitIdentical) {
  // Whole-system determinism: one fixed-seed 8x8 campaign (cores, caches,
  // power manager, Trojans) reduced to its CampaignOutcome. Catches any
  // refactor that changes packet-id assignment, delivery order or timing
  // anywhere in the stack.
  core::CampaignConfig cfg;
  cfg.system.width = 8;
  cfg.system.height = 8;
  cfg.system.epoch_cycles = 1500;
  cfg.system.seed = 7;
  cfg.mix = workload::standard_mixes().at(0);
  cfg.trojan.victim_scale = 0.10;
  cfg.trojan.attacker_boost = 8.0;
  cfg.warmup_epochs = 1;
  cfg.measure_epochs = 2;
  core::AttackCampaign campaign(cfg);

  const std::vector<NodeId> hts = {9, 18, 27, 36};
  const core::CampaignOutcome out =
      campaign.reduce(campaign.simulate(hts), campaign.simulate({}), hts);

  Fingerprint fp;
  fp.add_double(out.infection_measured);
  fp.add_double(out.infection_predicted);
  fp.add(out.q_valid ? 1 : 0);
  fp.add_double(out.q);
  fp.add_double(out.geometry.rho);
  fp.add_double(out.geometry.eta);
  fp.add(static_cast<std::uint64_t>(out.geometry.m));
  for (const core::AppOutcome& app : out.apps) {
    fp.add(app.id);
    fp.add(app.attacker ? 1 : 0);
    fp.add_double(app.theta_baseline);
    fp.add_double(app.theta_attacked);
    fp.add_double(app.change);
    fp.add_double(app.phi);
  }
  fp.add(out.trojan_totals.config_packets_seen);
  fp.add(out.trojan_totals.power_requests_seen);
  fp.add(out.trojan_totals.victim_requests_modified);
  fp.add(out.trojan_totals.attacker_requests_boosted);

  if (dump_mode()) {
    std::printf("kGoldenCampaign = 0x%llxULL\n",
                static_cast<unsigned long long>(fp.value()));
    return;
  }
  EXPECT_EQ(fp.value(), kGoldenCampaign);
}

}  // namespace
}  // namespace htpb::noc
