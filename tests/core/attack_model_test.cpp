#include "core/attack_model.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/optimizer.hpp"
#include "core/parallel_sweep.hpp"

namespace htpb::core {
namespace {

AttackSample sample(double rho, double eta, int m, double q) {
  AttackSample s;
  s.rho = rho;
  s.eta = eta;
  s.m = m;
  s.phi_victims = {2.0, 0.5};
  s.phi_attackers = {1.0};
  s.q = q;
  return s;
}

TEST(AttackEffectModel, RecoversPlantedLinearModel) {
  // Q = 3.0 - 0.2*rho - 0.1*eta + 0.15*m (+ constant Phi contributions).
  Rng rng(9);
  std::vector<AttackSample> samples;
  for (int i = 0; i < 80; ++i) {
    const double rho = rng.uniform(0, 10);
    const double eta = rng.uniform(0, 6);
    const int m = 1 + static_cast<int>(rng.below(24));
    const double q = 3.0 - 0.2 * rho - 0.1 * eta + 0.15 * m;
    samples.push_back(sample(rho, eta, m, q));
  }
  AttackEffectModel model;
  model.fit(samples);
  EXPECT_TRUE(model.fitted());
  EXPECT_GT(model.r2(), 0.999);
  // a1 (rho) and a2 (eta) recovered; the intercept is split with the
  // constant Phi columns, so only the varying coefficients are testable.
  EXPECT_NEAR(model.coefficients()[1], -0.2, 1e-6);
  EXPECT_NEAR(model.coefficients()[2], -0.1, 1e-6);
  EXPECT_NEAR(model.coefficients()[3], 0.15, 1e-6);
}

TEST(AttackEffectModel, PredictMatchesTrainingTargets) {
  Rng rng(11);
  std::vector<AttackSample> samples;
  for (int i = 0; i < 40; ++i) {
    samples.push_back(sample(rng.uniform(0, 8), rng.uniform(0, 4),
                             1 + static_cast<int>(rng.below(16)),
                             rng.uniform(1, 5)));
  }
  AttackEffectModel model;
  model.fit(samples);
  // Not a perfect fit (random q), but predictions must be finite and the
  // in-sample residual bounded by construction of least squares.
  for (const auto& s : samples) {
    const double p = model.predict(s);
    EXPECT_TRUE(std::isfinite(p));
  }
}

TEST(AttackEffectModel, FitValidation) {
  AttackEffectModel model;
  EXPECT_THROW(model.fit({}), std::invalid_argument);

  std::vector<AttackSample> few = {sample(1, 1, 1, 2), sample(2, 2, 2, 3)};
  EXPECT_THROW(model.fit(few), std::invalid_argument);  // p = 7 > n = 2

  std::vector<AttackSample> inconsistent(10, sample(1, 1, 1, 2));
  inconsistent[5].phi_victims = {1.0};  // wrong victim count
  EXPECT_THROW(model.fit(inconsistent), std::invalid_argument);
}

TEST(AttackEffectModel, PredictBeforeFitThrows) {
  const AttackEffectModel model;
  EXPECT_THROW((void)model.predict(sample(1, 1, 1, 0)), std::logic_error);
}

TEST(PlacementOptimizer, FindsHighQRegionOfPlantedModel) {
  // Planted model: Q large when rho small and m large. The optimizer must
  // pick a placement near the manager with m = max_hts.
  Rng rng(13);
  std::vector<AttackSample> samples;
  for (int i = 0; i < 60; ++i) {
    const double rho = rng.uniform(0, 8);
    const double eta = rng.uniform(0, 4);
    const int m = 1 + static_cast<int>(rng.below(16));
    samples.push_back(sample(rho, eta, m, 4.0 - 0.4 * rho + 0.2 * m));
  }
  AttackEffectModel model;
  model.fit(samples);

  const MeshGeometry geom(8, 8);
  const NodeId gm = geom.id_of({4, 4});
  PlacementOptimizer optimizer(geom, gm, &model, {2.0, 0.5}, {1.0});
  const ParallelSweepRunner runner(2);
  const auto result =
      optimizer.optimize_top_k(/*max_hts=*/16, /*candidates=*/40, /*k=*/1,
                               /*seed=*/17, runner).front();
  EXPECT_EQ(result.placement.m(), 16);     // m coefficient positive
  EXPECT_LT(result.placement.rho, 2.0);    // rho coefficient negative
  EXPECT_GT(result.predicted_q, 4.0);
}

TEST(PlacementOptimizer, RespectsHtBudget) {
  Rng rng(19);
  std::vector<AttackSample> samples;
  for (int i = 0; i < 40; ++i) {
    samples.push_back(sample(rng.uniform(0, 8), rng.uniform(0, 4),
                             1 + static_cast<int>(rng.below(12)),
                             1.0 + 0.5 * static_cast<double>(i % 5)));
  }
  AttackEffectModel model;
  model.fit(samples);
  const MeshGeometry geom(8, 8);
  PlacementOptimizer optimizer(geom, geom.id_of({4, 4}), &model, {2.0, 0.5},
                               {1.0});
  const ParallelSweepRunner runner(2);
  for (const int budget : {1, 3, 7}) {
    const auto result =
        optimizer.optimize_top_k(budget, 20, 1, /*seed=*/21, runner).front();
    EXPECT_LE(result.placement.m(), budget);
    EXPECT_GE(result.placement.m(), 1);
  }
  EXPECT_THROW((void)optimizer.optimize_top_k(0, 10, 1, /*seed=*/21, runner),
               std::invalid_argument);
}

TEST(PlacementOptimizer, BeatsRandomPlacementOnPredictedQ) {
  Rng rng(23);
  std::vector<AttackSample> samples;
  for (int i = 0; i < 60; ++i) {
    const double rho = rng.uniform(0, 8);
    const double eta = rng.uniform(0, 4);
    const int m = 1 + static_cast<int>(rng.below(16));
    samples.push_back(sample(rho, eta, m, 3.0 - 0.3 * rho - 0.2 * eta));
  }
  AttackEffectModel model;
  model.fit(samples);
  const MeshGeometry geom(8, 8);
  const NodeId gm = geom.id_of({4, 4});
  PlacementOptimizer optimizer(geom, gm, &model, {2.0, 0.5}, {1.0});
  const ParallelSweepRunner runner(2);
  Rng opt_rng(29);
  const auto best =
      optimizer.optimize_top_k(16, 40, 1, /*seed=*/29, runner).front();
  double random_mean = 0.0;
  for (int i = 0; i < 20; ++i) {
    const auto rand_nodes = random_placement(geom, 16, opt_rng, gm);
    random_mean +=
        optimizer.score(describe_placement(geom, gm, rand_nodes));
  }
  random_mean /= 20.0;
  EXPECT_GE(best.predicted_q, random_mean);
}

}  // namespace
}  // namespace htpb::core
