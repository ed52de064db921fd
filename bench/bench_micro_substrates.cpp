// Microbenchmarks of the substrates: router/mesh cycle cost, cache
// operations, budgeting policies, regression fit and the analytic
// infection estimator. These quantify the simulator itself (not a paper
// figure) and guard against performance regressions.
//
// Runs on the vendored bench/perf_harness.hpp (no libbenchmark
// dependency), so this target always builds. Reporting reuses the
// harness's cycles/sec plumbing with "cycles" meaning *operations* here
// (one mesh cycle, one cache lookup, one allocate call, ...).
//
//   bench_micro_substrates [--quick] [--json <path>] [--baseline <path>]
//                          [--max-regression <frac>]
#include <cstring>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/infection.hpp"
#include "core/placement.hpp"
#include "mem/cache.hpp"
#include "noc/network.hpp"
#include "perf_harness.hpp"
#include "power/budgeter.hpp"
#include "sim/engine.hpp"

namespace {

using namespace htpb;

/// Defeats dead-code elimination the way benchmark::DoNotOptimize did.
template <typename T>
inline void keep(T&& value) {
  asm volatile("" : : "g"(value) : "memory");
}

/// Times `ops` iterations of `fn` (best of `reps`) and reports ops/sec
/// through the harness ("cycles" == operations for the substrates).
template <typename Fn>
bench::PerfResult measure(const std::string& name, std::uint64_t ops,
                          int reps, Fn&& fn) {
  bench::PerfResult res;
  res.name = name;
  res.sim_cycles = ops;
  res.seconds = bench::best_seconds_of(reps, fn);
  res.cycles_per_sec =
      res.seconds > 0.0 ? static_cast<double>(ops) / res.seconds : 0.0;
  return res;
}

// Mesh state lives outside the timed region (construction cost would
// otherwise dwarf the per-cycle tick cost being measured); successive
// reps keep ticking the same warm network, as iterations did under
// google-benchmark.
bench::PerfResult bm_mesh_idle_cycle(int side, std::uint64_t cycles,
                                     int reps) {
  sim::Engine engine;
  noc::MeshNetwork net(engine, MeshGeometry(side, side), noc::NocConfig{});
  return measure("mesh_idle_" + std::to_string(side) + "x" +
                     std::to_string(side),
                 cycles, reps,
                 [&] { engine.run_cycles(static_cast<Cycle>(cycles)); });
}

bench::PerfResult bm_mesh_uniform_traffic(int side, std::uint64_t rounds,
                                          int reps) {
  sim::Engine engine;
  MeshGeometry geom(side, side);
  noc::MeshNetwork net(engine, geom, noc::NocConfig{});
  const auto n = static_cast<std::uint64_t>(geom.node_count());
  for (NodeId i = 0; i < n; ++i) {
    net.set_handler(i, [](const noc::Packet&) {});
  }
  Rng rng(1);
  return measure(
      "mesh_uniform_" + std::to_string(side) + "x" + std::to_string(side),
      rounds * 4,  // 4 simulated cycles per round
      reps, [&] {
        for (std::uint64_t r = 0; r < rounds; ++r) {
          for (int k = 0; k < side; ++k) {
            const auto src = static_cast<NodeId>(rng.below(n));
            auto dst = static_cast<NodeId>(rng.below(n));
            if (dst == src) dst = static_cast<NodeId>((dst + 1) % n);
            net.send(net.make_packet(src, dst, noc::PacketType::kMemReadReq));
          }
          engine.run_cycles(4);
        }
      });
}

bench::PerfResult bm_cache_lookup(std::uint64_t ops, int reps) {
  mem::SetAssocCache<int> cache(256, 2);
  bool evicted = false;
  for (std::uint64_t a = 0; a < 400; ++a) cache.allocate(a, nullptr, &evicted);
  return measure("cache_lookup", ops, reps, [&] {
    Rng rng(2);
    for (std::uint64_t i = 0; i < ops; ++i) {
      keep(cache.find(rng.below(512)));
    }
  });
}

bench::PerfResult bm_budgeter_allocate(power::BudgeterKind kind,
                                       std::uint64_t ops, int reps) {
  const auto budgeter = power::make_budgeter(kind);
  Rng rng(3);
  std::vector<power::BudgetRequest> reqs;
  for (NodeId i = 0; i < 256; ++i) {
    reqs.push_back({i, 0, static_cast<std::uint32_t>(500 + rng.below(3000))});
  }
  return measure(std::string("budgeter_") + budgeter->name(), ops, reps,
                 [&] {
                   for (std::uint64_t i = 0; i < ops; ++i) {
                     keep(budgeter->allocate(reqs, 300'000, 500));
                   }
                 });
}

bench::PerfResult bm_least_squares_fit(std::uint64_t ops, int reps) {
  Rng rng(4);
  const std::size_t n = 64;
  const std::size_t p = 9;
  Matrix x(n, p);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = 1.0;
    for (std::size_t j = 1; j < p; ++j) x(i, j) = rng.uniform(-2, 2);
    y[i] = rng.uniform(0, 5);
  }
  return measure("least_squares_fit", ops, reps, [&] {
    for (std::uint64_t i = 0; i < ops; ++i) {
      keep(least_squares(x, y, 1e-6));
    }
  });
}

bench::PerfResult bm_infection_prediction(int side, std::uint64_t ops,
                                          int reps) {
  const MeshGeometry geom(side, side);
  const NodeId gm = geom.id_of(geom.center());
  const core::InfectionAnalyzer analyzer(geom, gm);
  Rng rng(5);
  const auto hts = core::random_placement(geom, side, rng, gm);
  return measure("infection_predict_" + std::to_string(side) + "x" +
                     std::to_string(side),
                 ops, reps, [&] {
                   for (std::uint64_t i = 0; i < ops; ++i) {
                     keep(analyzer.predicted_rate(hts));
                   }
                 });
}

bench::PerfResult bm_target_placement_search(std::uint64_t ops, int reps) {
  const MeshGeometry geom(16, 16);
  const NodeId gm = geom.id_of(geom.center());
  const core::InfectionAnalyzer analyzer(geom, gm);
  return measure("target_placement_search", ops, reps, [&] {
    Rng rng(6);
    for (std::uint64_t i = 0; i < ops; ++i) {
      keep(analyzer.placement_for_target(0.7, 64, rng));
    }
  });
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path;
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

  const int reps = quick ? 1 : 3;
  const std::uint64_t scale = quick ? 1 : 10;
  std::printf("substrate microbenches (%s mode, best of %d rep%s; "
              "rates are ops/sec)\n",
              quick ? "quick" : "full", reps, reps == 1 ? "" : "s");

  using htpb::bench::PerfReport;
  PerfReport report("micro_substrates");
  for (const int side : {8, 16, 32}) {
    report.add(bm_mesh_idle_cycle(side, 2000 * scale, reps));
  }
  for (const int side : {8, 16}) {
    report.add(bm_mesh_uniform_traffic(side, 100 * scale, reps));
  }
  report.add(bm_cache_lookup(100'000 * scale, reps));
  for (const auto kind :
       {htpb::power::BudgeterKind::kUniform, htpb::power::BudgeterKind::kGreedy,
        htpb::power::BudgeterKind::kProportional,
        htpb::power::BudgeterKind::kDynamicProgramming,
        htpb::power::BudgeterKind::kMarket}) {
    report.add(bm_budgeter_allocate(kind, 200 * scale, reps));
  }
  report.add(bm_least_squares_fit(500 * scale, reps));
  for (const int side : {8, 16, 32}) {
    report.add(bm_infection_prediction(side, 200 * scale, reps));
  }
  report.add(bm_target_placement_search(5 * scale, reps));

  if (!json_path.empty() && !report.write_json(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  if (!baseline_path.empty()) {
    std::printf("\ncomparing against %s (max regression %.0f%%)\n",
                baseline_path.c_str(), max_regression * 100.0);
    if (!report.check_against(baseline_path, max_regression)) return 1;
  }
  return 0;
}
