// Defense-evaluation sweeps: detector operating points x Trojan
// placements, reduced to the curves a defender actually reads off:
//
//   - detection rate      fraction of Trojan-affected cores flagged
//                         (distinct cores -- a core in both flag lists
//                         counts once),
//   - false-positive rate flags raised on clean traffic,
//   - detection latency   epochs from power-on to the first confirmed flag,
//   - Q under guard       residual attack effect when the GuardedBudgeter
//                         clamps requests at the same operating point.
//
// This is the ROC-style surface the paper's conclusion asks for on top of
// the Figs. 3-6 pipeline: sweep the trust band from tight to loose and
// watch detection buy false positives (and the guard trade Q for fidelity
// to honest workload phase changes). Every arm always runs. Closed-loop
// response policies are not evaluated here: they perturb the dynamics
// per cell, and the defense-closed-loop scenario
// (scenario/runner.cpp, run_defense_closed_loop) is their one home.
//
// Cost shape (record-once/replay-many): detectors never perturb the
// dynamics, so the detection arm runs ONE recorded simulation per
// placement (power::RequestTrace) and replays the trace through every
// operating point offline; the clean arm records one dormant-Trojan
// trace and replays the grid. Only the guard arm, which genuinely
// changes the dynamics, simulates per operating point. For D operating
// points and P placements the sweep simulates 1 + P + 1 + D x (1 + P)
// systems, all in one pool pass: the baseline, the traced placements,
// the clean recording, then per operating point a guard baseline and its
// placements.
// Replayed reports are bit-identical to in-simulation detection, the
// sweep is bit-identical at 1 and N threads, and each cell's report is
// the same whether the cell is evaluated alone or inside a batch
// (tests/core/defense_sweep_test.cpp and trace_replay_test.cpp lock all
// three).
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "core/campaign.hpp"
#include "core/parallel_sweep.hpp"
#include "power/defense.hpp"

namespace htpb::core {

struct DefenseSweepConfig {
  /// The attack scenario under evaluation. `base.detector` is overwritten
  /// per operating point; leave it unset.
  CampaignConfig base;
  /// Detector operating points to sweep (e.g. the trust band widened step
  /// by step). Must be non-empty.
  std::vector<power::DetectorConfig> detectors;
  /// Trojan placements to evaluate each operating point against. Must be
  /// non-empty.
  std::vector<std::vector<NodeId>> placements;
};

/// One (detector, placement) evaluation.
struct DefenseCell {
  std::size_t detector_index = 0;
  std::size_t placement_index = 0;
  /// Full campaign outcome; `outcome.detection` is this cell's report.
  CampaignOutcome outcome;
  double victim_flag_rate = 0.0;    ///< flagged_low / victim cores
  double attacker_flag_rate = 0.0;  ///< flagged_high / attacker cores
};

/// The reduced curve point for one detector operating point.
struct DefenseCurvePoint {
  power::DetectorConfig detector;
  /// Mean over placements of (flags / monitored cores).
  double detection_rate = 0.0;
  double victim_flag_rate = 0.0;
  double attacker_flag_rate = 0.0;
  /// Clean-traffic flags / monitored cores (0 when the first placement
  /// implants no Trojans, since a detector then never engages).
  double false_positive_rate = 0.0;
  /// Mean epochs to the first confirmed flag over the cells that detected
  /// anything; -1 when no cell ever flagged.
  double mean_detection_latency = -1.0;
  /// Mean Q over placements without mitigation (detector is passive, so
  /// this equals the undefended attack effect).
  double mean_q_plain = 0.0;
  /// Mean Q with the GuardedBudgeter clamping at this operating point.
  double mean_q_guarded = 0.0;
  std::vector<DefenseCell> cells;  ///< per placement, in placement order
};

class DefenseSweep {
 public:
  explicit DefenseSweep(DefenseSweepConfig cfg);

  /// Runs every arm through `runner`'s pool and reduces per operating
  /// point. Deterministic: bit-identical results for any thread count.
  [[nodiscard]] std::vector<DefenseCurvePoint> run(
      const ParallelSweepRunner& runner) const;

 private:
  DefenseSweepConfig cfg_;
};

}  // namespace htpb::core
