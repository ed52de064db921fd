// The benchmark's probes: direct calls into single layers, made once per
// traced run, that split a workload's time into named layers and describe
// the traffic it puts on the model.
//
//  probe_leg        one chip lifetime of the workload's largest chip,
//                   driven through ManyCoreSystem: build, epochs, snapshot
//                   save / dump / parse / load, teardown, model counts.
//  probe_noc_kernel a standalone MeshNetwork at the same mesh, injected at
//                   the leg's packets per node per cycle: cost per flit.
//  run_fleet        the htpb_fleet flow through public calls (resolve,
//                   expand, FleetScheduler, merge, atomic write); it is the
//                   fleet workload's timed call and every other workload's
//                   fleet probe.
#pragma once

#include <cstdint>
#include <string>

#include "common/json.hpp"
#include "core/fleet_scheduler.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace scenbench {

struct LegProbe {
  double build_ms = 0.0;
  double teardown_ms = 0.0;
  double epoch_ms = 0.0;      ///< mean host ms per simulated epoch
  double ns_per_cycle = 0.0;  ///< host ns per simulated cycle
  double save_ms = 0.0;
  double load_ms = 0.0;
  double snapshot_mb = 0.0;  ///< compact JSON dump of the snapshot, 1e6 bytes
  double dump_ms = 0.0;
  double parse_ms = 0.0;
  // Model counts over the whole leg (deterministic for a seed).
  double flits_per_cycle = 0.0;
  double sa_stalls_per_kflit = 0.0;
  double l1_miss_rate = 0.0;
  double l2_fetches_per_kcycle = 0.0;
  double ipc = 0.0;  ///< instructions per core per cycle
  double requests_per_epoch = 0.0;
  double packets_per_node_cycle = 0.0;
};

[[nodiscard]] LegProbe probe_leg(const Chip& chip, Tracer& tracer);

/// Median over three identical runs of host ns per forwarded flit.
[[nodiscard]] double probe_noc_kernel(const Chip& chip, double rate,
                                      std::uint64_t seed, Tracer& tracer);

struct FleetRun {
  htpb::json::Value merged;
  htpb::core::FleetReport report;
  int cells = 0;
  double wall_ms = 0.0;
  double resolve_ms = 0.0;
  double expand_ms = 0.0;
  double merge_ms = 0.0;
  double atomic_write_ms = 0.0;
  /// Sum over cells of the seconds each worker spent inside run_scenario
  /// (the "timing" each cell result reports).
  double cell_seconds = 0.0;
};

inline constexpr int kFleetShards = 2;

/// Runs the workload's spec as a fleet campaign of htpb_run --threads 1
/// workers in `run_dir` (emptied first and removed afterwards).
[[nodiscard]] FleetRun run_fleet(const Inputs& in, const std::string& run_dir,
                                 Tracer& tracer);

/// Median ms of `launches` `htpb_run --list` round trips through
/// common::run_subprocess: the start-up cost every fleet cell pays.
[[nodiscard]] double worker_start_ms(int launches);

}  // namespace scenbench
