// The attack-effect maximization problem (paper Eq. 10-11):
//
//   max_{rho, eta, m} Q(D, G)   subject to   m <= M_HT
//
// solved, as the paper suggests, by enumeration: candidate placements
// covering the reachable (rho, eta) space are generated for every m up to
// the budget, scored with the fitted linear model, and the best one is
// returned.
#pragma once

#include <vector>

#include "common/geometry.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/attack_model.hpp"
#include "core/placement.hpp"

namespace htpb::core {

class ParallelSweepRunner;

struct OptimizerResult {
  Placement placement;
  double predicted_q = 0.0;
};

class PlacementOptimizer {
 public:
  /// `phi_victims` / `phi_attackers` are the mix's sensitivities (constant
  /// across placements; they enter the model's prediction as-is).
  PlacementOptimizer(const MeshGeometry& geom, NodeId global_manager,
                     const AttackEffectModel* model,
                     std::vector<double> phi_victims,
                     std::vector<double> phi_attackers)
      : geom_(geom), gm_(global_manager), model_(model),
        phi_victims_(std::move(phi_victims)),
        phi_attackers_(std::move(phi_attackers)) {}

  /// Enumerates `candidates_per_m` placements for each m in [1, max_hts]
  /// and returns the `k` best-scoring placements in descending
  /// predicted-Q order (k = 1 is the single best placement). The linear
  /// model (Eq. 9) is only an approximation, so a careful attacker
  /// validates the short list in simulation before committing fab
  /// resources.
  ///
  /// The per-m candidate batches are fanned across `runner`'s thread
  /// pool, each drawing from its own
  /// `ParallelSweepRunner::stream_rng(seed, m - 1)` stream, so the result
  /// is bit-identical at any thread count.
  [[nodiscard]] std::vector<OptimizerResult> optimize_top_k(
      int max_hts, int candidates_per_m, int k, std::uint64_t seed,
      const ParallelSweepRunner& runner) const;

  /// Scores one placement with the model.
  [[nodiscard]] double score(const Placement& p) const;

 private:
  MeshGeometry geom_;
  NodeId gm_;
  const AttackEffectModel* model_;
  std::vector<double> phi_victims_;
  std::vector<double> phi_attackers_;
};

}  // namespace htpb::core
