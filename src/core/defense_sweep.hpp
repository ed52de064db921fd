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
// to honest workload phase changes).
//
// Cost shape (record-once/replay-many): detectors never perturb the
// dynamics, so the detection arm runs ONE recorded simulation per
// placement (power::RequestTrace) and replays the trace through every
// operating point offline; the clean arm records one dormant-Trojan
// trace and replays the grid. Simulation count is O(placements) + 1,
// independent of the detector-grid size -- only the guard arm, which
// genuinely changes the dynamics, still simulates per operating point.
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
#include "power/response.hpp"

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
  /// Also run a GuardedBudgeter arm per operating point (same trust band
  /// as the detector) and report the residual attack effect Q.
  bool evaluate_guard = true;
  /// Also run a clean arm per operating point (Trojans implanted but kept
  /// dormant, so traffic is honest) and report false positives.
  bool measure_false_positives = true;
  /// Closed-loop response axis: for each response kind listed, every
  /// (detector, placement) cell re-runs with that policy engaged
  /// (power/response.hpp) and reports the recovery/collateral tradeoff.
  /// Responses perturb the dynamics, so -- unlike the detection arm --
  /// every cell is a fresh simulation: O(detectors x responses x
  /// placements) systems, all sharing the detection arm's baseline.
  /// Empty (the default) = axis off, and the sweep's
  /// simulation count stays the trace-replay-test-locked O(placements).
  std::vector<power::ResponseKind> responses;
  /// Trigger/sanction/recovery parameters shared by every response arm
  /// (the kind comes from `responses`).
  power::ResponseConfig response_base;
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

/// One response policy's aggregate at one detector operating point
/// (means over placements).
struct ResponseCurvePoint {
  power::ResponseKind kind = power::ResponseKind::kQuarantine;
  /// Mean residual Q with the policy engaged (compare mean_q_plain).
  double mean_q = 0.0;
  double mean_sanctioned = 0.0;
  double mean_collateral = 0.0;
  double mean_victim_grant_recovery = 0.0;
  /// Mean over the cells that recovered; -1 when none did.
  double mean_epochs_to_recovery = -1.0;
  double mean_migrations = 0.0;
};

/// The reduced curve point for one detector operating point.
struct DefenseCurvePoint {
  power::DetectorConfig detector;
  /// Mean over placements of (flags / monitored cores).
  double detection_rate = 0.0;
  double victim_flag_rate = 0.0;
  double attacker_flag_rate = 0.0;
  /// Clean-traffic flags / monitored cores (0 when the arm is disabled).
  double false_positive_rate = 0.0;
  /// Mean epochs to the first confirmed flag over the cells that detected
  /// anything; -1 when no cell ever flagged.
  double mean_detection_latency = -1.0;
  /// Mean Q over placements without mitigation (detector is passive, so
  /// this equals the undefended attack effect).
  double mean_q_plain = 0.0;
  /// Mean Q with the GuardedBudgeter clamping at this operating point
  /// (0 when the guard arm is disabled).
  double mean_q_guarded = 0.0;
  std::vector<DefenseCell> cells;  ///< per placement, in placement order
  /// Per response kind, in DefenseSweepConfig::responses order (empty
  /// when the response axis is off).
  std::vector<ResponseCurvePoint> responses;
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
