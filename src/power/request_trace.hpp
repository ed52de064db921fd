// Request-trace record/replay: the bridge between one cycle-level
// simulation and arbitrarily many detector evaluations.
//
// Detectors (power/defense.hpp) are purely observational -- they watch the
// per-epoch BudgetRequest vectors the global manager collected, and never
// perturb the dynamics. A detector's verdict is therefore a pure function
// of that request stream. Recording the stream once per placement and
// replaying it through every detector operating point decouples defense
// sweeps from the detector-grid size: O(placements) full simulations plus
// O(placements x detectors) cheap replays, instead of O(placements x
// detectors) simulations.
//
// Lifecycle and immutability contract:
//  - GlobalManager::attach_recorder() appends one TraceEpoch per epoch at
//    the exact point the in-simulation detector would observe it (window
//    close, before allocation), with the exact vector the detector would
//    see. Empty epochs are recorded too: a detector's epoch counter must
//    advance identically in replay.
//  - AttackCampaign::simulate(ht_nodes, &trace) owns the recording run;
//    the trace is a value and is never mutated afterwards -- every
//    consumer takes `const RequestTrace&`.
//  - replay_detector() feeds the trace through a fresh detector and
//    returns its cumulative report. For any DetectorConfig the replayed
//    report is bit-identical to the report an in-simulation detector
//    attached to the recording run would have produced
//    (tests/core/trace_replay_test.cpp locks this equivalence).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "power/budgeter.hpp"
#include "power/defense.hpp"

namespace htpb::power {

/// One budgeting epoch as the global manager saw it: the raw requests
/// collected before allocation, plus the epoch's timing/budget metadata.
struct TraceEpoch {
  /// Cycle the manager opened the collection window.
  Cycle epoch_start = 0;
  /// Cycle the window closed (allocate_and_reply ran).
  Cycle allocate_cycle = 0;
  /// Chip budget in force for this epoch.
  std::uint64_t budget_mw = 0;
  /// Exactly the vector fed to the in-simulation detector and budgeter --
  /// possibly tampered in flight; that is the point.
  std::vector<BudgetRequest> requests;

  friend bool operator==(const TraceEpoch&, const TraceEpoch&) = default;
};

/// A full run's request stream plus the system metadata a replay consumer
/// needs to interpret it. Written once by the recording run, read-only
/// afterwards.
struct RequestTrace {
  std::vector<TraceEpoch> epochs;
  /// Mesh size of the recording system (context for rate denominators).
  int node_count = 0;
  /// Epoch length of the recording system.
  Cycle epoch_cycles = 0;

  [[nodiscard]] std::size_t size() const noexcept { return epochs.size(); }
  [[nodiscard]] bool empty() const noexcept { return epochs.empty(); }

  /// Versioned binary persistence (the ROADMAP's "iterate on detectors
  /// without re-simulating at all"): save() writes a little-endian,
  /// magic-tagged file; load() accepts exactly that format and throws
  /// std::runtime_error on a bad magic, an unsupported version, a
  /// truncated body, a node count of 0 or past `int`, or a request from a
  /// node outside [0, node_count). load(save(x)) == x field for field, so
  /// a replayed report off a loaded trace is bit-identical to one off the
  /// recording run (tests/core/trace_replay_test.cpp locks the round trip).
  /// Surfaced on the CLI as `htpb_run --record-trace / --replay-trace`.
  void save(const std::string& path) const;
  [[nodiscard]] static RequestTrace load(const std::string& path);

  friend bool operator==(const RequestTrace&, const RequestTrace&) = default;
};

/// Replays `trace` through a fresh detector built by `make_detector(cfg)`
/// and returns the cumulative report -- bit-identical to the
/// in-simulation report of the recording run. Pure function of
/// (trace, cfg); no simulation.
[[nodiscard]] DetectorReport replay_detector(const RequestTrace& trace,
                                             const DetectorConfig& cfg);

}  // namespace htpb::power
