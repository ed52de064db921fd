// Hot-path microbenchmark for the cycle-level NoC core: measures raw
// simulated cycles/sec of MeshNetwork::tick under synthetic traffic, the
// quantity every campaign sweep is bottlenecked on. Emits a flat JSON
// (BENCH_noc_hotpath.json) so the perf trajectory is checked in, and can
// gate CI against a checked-in baseline.
//
//   bench_noc_hotpath [--quick] [--json <path>] [--baseline <path>]
//                     [--max-regression <frac>]
//
// Workloads per mesh size:
//   uniform  -- every node injects Bernoulli(p) packets to uniform-random
//               destinations, mixed packet types (the property-test load).
//   hotspot  -- as uniform, but 20% of packets target the mesh center
//               (models the power-manager confluence of the paper).
//   powerstorm - every node sends POWER_REQ to the center on a fixed
//               period and the center answers with POWER_GRANT -- the
//               epoch-boundary storm of the budgeting protocol.
//   quiescent -- no traffic at all after a priming burst: isolates the
//               per-cycle bookkeeping cost of an idle mesh, the case the
//               active-set scheduler exists for.
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "noc/network.hpp"
#include "perf_harness.hpp"
#include "sim/engine.hpp"

namespace {

using namespace htpb;

constexpr double kInjectionRate = 0.05;  // packets per node per cycle

noc::PacketType mixed_type(Rng& rng) {
  static constexpr noc::PacketType kKinds[] = {
      noc::PacketType::kMemReadReq, noc::PacketType::kMemReply,
      noc::PacketType::kPowerRequest, noc::PacketType::kWriteback};
  return kKinds[rng.below(4)];
}

/// Synthetic traffic source ticked after the network (registration order),
/// so injections enqueue exactly as a core/NI pair would.
class TrafficGen : public sim::Tickable {
 public:
  enum class Kind { kUniform, kHotspot, kPowerStorm, kQuiescent };

  TrafficGen(noc::MeshNetwork& net, Kind kind, std::uint64_t seed)
      : net_(net), kind_(kind), rng_(seed),
        nodes_(static_cast<std::uint64_t>(net.geometry().node_count())),
        center_(net.geometry().id_of(net.geometry().center())) {
    net_.engine().add_tickable(this);
  }

  void tick(Cycle now) override {
    switch (kind_) {
      case Kind::kQuiescent:
        // One priming burst so the mesh is provably functional, then
        // silence: the measurement is the cost of ticking an idle mesh.
        if (now == 0) {
          for (NodeId n = 0; n < static_cast<NodeId>(nodes_); ++n) {
            inject(n, pick_dst(n), noc::PacketType::kMemReadReq);
          }
        }
        return;
      case Kind::kPowerStorm: {
        // Epoch-boundary storm: all nodes request in the same window.
        if (now % kStormPeriod < 1 && now > 0) {
          for (NodeId n = 0; n < static_cast<NodeId>(nodes_); ++n) {
            if (n != center_) {
              inject(n, center_, noc::PacketType::kPowerRequest);
            }
          }
        }
        return;
      }
      case Kind::kUniform:
      case Kind::kHotspot:
        for (NodeId n = 0; n < static_cast<NodeId>(nodes_); ++n) {
          if (!rng_.chance(kInjectionRate)) continue;
          NodeId dst = pick_dst(n);
          if (kind_ == Kind::kHotspot && n != center_ && rng_.chance(0.2)) {
            dst = center_;
          }
          inject(n, dst, mixed_type(rng_));
        }
        return;
    }
  }

 private:
  static constexpr Cycle kStormPeriod = 200;

  NodeId pick_dst(NodeId src) {
    auto dst = static_cast<NodeId>(rng_.below(nodes_));
    if (dst == src) dst = static_cast<NodeId>((dst + 1) % nodes_);
    return dst;
  }

  void inject(NodeId src, NodeId dst, noc::PacketType type) {
    net_.send(net_.make_packet(src, dst, type));
  }

  noc::MeshNetwork& net_;
  Kind kind_;
  Rng rng_;
  std::uint64_t nodes_;
  NodeId center_;
};

/// The center node grants every power request it receives -- the reply
/// half of the storm workload (class-1 traffic exercises both VC classes).
void attach_grant_echo(noc::MeshNetwork& net, NodeId center) {
  net.set_handler(center, [&net, center](const noc::Packet& pkt) {
    if (pkt.type == noc::PacketType::kPowerRequest) {
      net.send(net.make_packet(center, pkt.src,
                               noc::PacketType::kPowerGrant, pkt.payload));
    }
  });
}

bench::PerfResult run_workload(const std::string& name, int width, int height,
                               TrafficGen::Kind kind, Cycle cycles,
                               int reps) {
  bench::PerfResult res;
  res.name = name;
  res.sim_cycles = cycles;
  // The fastest of `reps` full simulations: each rep rebuilds the network
  // so every run starts cold and deterministic (identical work per rep).
  res.seconds = bench::best_seconds_of(reps, [&] {
    sim::Engine engine;
    MeshGeometry geom(width, height);
    noc::MeshNetwork net(engine, geom, noc::NocConfig{});
    const NodeId center = geom.id_of(geom.center());
    if (kind == TrafficGen::Kind::kPowerStorm) {
      attach_grant_echo(net, center);
    }
    TrafficGen gen(net, kind, /*seed=*/0xB0C0 + static_cast<std::uint64_t>(
                                          width * 131 + height));
    engine.run_cycles(cycles);
    res.packets_delivered = net.stats().packets_delivered;
    res.flits_forwarded = net.total_router_stats().flits_forwarded;
    res.avg_latency = net.stats().latency_all.mean();
  });
  res.cycles_per_sec = static_cast<double>(cycles) / res.seconds;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path = "BENCH_noc_hotpath.json";
  std::string baseline_path;
  double max_regression = 0.25;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--max-regression") == 0 && i + 1 < argc) {
      max_regression = htpb::bench::parse_max_regression(argv[++i], argv[0]);
    } else {
      return htpb::bench::perf_usage(argv[0]);
    }
  }

  struct Sized {
    int size;
    Cycle cycles;
  };
  // Cycle counts scaled so each (size, workload) cell runs ~comparable
  // wall time; quick mode is a smoke test, not a measurement.
  const std::vector<Sized> sizes = quick
      ? std::vector<Sized>{{8, 4000}, {16, 1500}}
      : std::vector<Sized>{{8, 60000}, {16, 20000}, {32, 6000}};
  const int reps = quick ? 1 : 3;

  std::printf("== bench_noc_hotpath (%s mode, %d rep%s)\n",
              quick ? "quick" : "full", reps, reps == 1 ? "" : "s");
  bench::PerfReport report;
  for (const Sized& s : sizes) {
    const std::string mesh =
        std::to_string(s.size) + "x" + std::to_string(s.size);
    report.add(run_workload(mesh + "/uniform", s.size, s.size,
                            TrafficGen::Kind::kUniform, s.cycles, reps));
    report.add(run_workload(mesh + "/hotspot", s.size, s.size,
                            TrafficGen::Kind::kHotspot, s.cycles, reps));
    report.add(run_workload(mesh + "/powerstorm", s.size, s.size,
                            TrafficGen::Kind::kPowerStorm, s.cycles, reps));
    report.add(run_workload(mesh + "/quiescent", s.size, s.size,
                            TrafficGen::Kind::kQuiescent, s.cycles, reps));
  }

  if (!report.write_json(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());

  if (!baseline_path.empty()) {
    std::printf("== comparing against %s (max regression %.0f%%)\n",
                baseline_path.c_str(), max_regression * 100.0);
    if (!report.check_against(baseline_path, max_regression)) {
      std::fprintf(stderr, "perf regression detected\n");
      return 1;
    }
  }
  return 0;
}
