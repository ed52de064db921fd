#include "core/optimizer.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/parallel_sweep.hpp"

namespace htpb::core {

namespace {

void check_args(int max_hts, int k) {
  if (max_hts < 1) {
    throw std::invalid_argument("PlacementOptimizer: max_hts must be >= 1");
  }
  if (k < 1) {
    throw std::invalid_argument("PlacementOptimizer: k must be >= 1");
  }
}

std::vector<OptimizerResult> take_top_k(std::vector<OptimizerResult> all,
                                        int k) {
  const auto take = std::min<std::size_t>(static_cast<std::size_t>(k),
                                          all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(take),
                    all.end(), [](const auto& a, const auto& b) {
                      return a.predicted_q > b.predicted_q;
                    });
  all.resize(take);
  return all;
}

}  // namespace

double PlacementOptimizer::score(const Placement& p) const {
  AttackSample s;
  s.rho = p.rho;
  s.eta = p.eta;
  s.m = p.m();
  s.phi_victims = phi_victims_;
  s.phi_attackers = phi_attackers_;
  return model_->predict(s);
}

std::vector<OptimizerResult> PlacementOptimizer::optimize_top_k(
    int max_hts, int candidates_per_m, int k, std::uint64_t seed,
    const ParallelSweepRunner& runner) const {
  check_args(max_hts, k);
  // One task per m; each task owns the (seed, m-1) stream, so candidate
  // generation is identical no matter how the pool schedules the tasks.
  auto per_m = runner.map_streams(
      static_cast<std::size_t>(max_hts), seed,
      [&](std::size_t idx, Rng& rng) {
        const int m = static_cast<int>(idx) + 1;
        std::vector<OptimizerResult> local;
        auto candidates =
            candidate_placements(geom_, gm_, m, candidates_per_m, rng);
        local.reserve(candidates.size());
        for (auto& cand : candidates) {
          OptimizerResult r;
          r.predicted_q = score(cand);
          r.placement = std::move(cand);
          local.push_back(std::move(r));
        }
        return local;
      });
  std::vector<OptimizerResult> all;
  for (auto& batch : per_m) {
    for (auto& r : batch) all.push_back(std::move(r));
  }
  return take_top_k(std::move(all), k);
}

}  // namespace htpb::core
