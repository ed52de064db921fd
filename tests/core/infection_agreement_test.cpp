// Cross-validation property: the analytic XY path-coverage infection
// estimator must agree with the full flit-level simulation across mesh
// sizes, manager placements and Trojan layouts. This is the link that
// lets the benches use cheap analytics to target infection rates.
#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "core/infection.hpp"
#include "core/placement.hpp"
#include "scenario/spec.hpp"
#include "workload/application.hpp"

namespace htpb::core {
namespace {

struct AgreementParam {
  int nodes;
  system::GmPlacement gm;
  enum class Layout { kCenter, kRandom, kCorner, kTargeted } layout;
  int hts;
  std::uint64_t seed;
};

class InfectionAgreementTest
    : public ::testing::TestWithParam<AgreementParam> {};

TEST_P(InfectionAgreementTest, AnalyticMatchesSimulated) {
  const AgreementParam p = GetParam();
  CampaignConfig cfg;
  const auto [width, height] = scenario::mesh_for_size(p.nodes);
  cfg.system.width = width;
  cfg.system.height = height;
  cfg.system.epoch_cycles = 1500;
  cfg.system.gm_placement = p.gm;
  cfg.mix = std::nullopt;
  cfg.warmup_epochs = 1;
  cfg.measure_epochs = 3;
  AttackCampaign campaign(cfg);
  const MeshGeometry geom(cfg.system.width, cfg.system.height);
  const InfectionAnalyzer analyzer(geom, campaign.gm_node());

  Rng rng(p.seed);
  std::vector<NodeId> hts;
  switch (p.layout) {
    case AgreementParam::Layout::kCenter:
      hts = clustered_placement(geom, p.hts, geom.center(),
                                campaign.gm_node());
      break;
    case AgreementParam::Layout::kRandom:
      hts = random_placement(geom, p.hts, rng, campaign.gm_node());
      break;
    case AgreementParam::Layout::kCorner:
      hts = clustered_placement(geom, p.hts, {0, 0}, campaign.gm_node());
      break;
    case AgreementParam::Layout::kTargeted:
      hts = analyzer.placement_for_target(0.6, p.hts, rng);
      break;
  }

  const double analytic = analyzer.predicted_rate(hts);
  const double simulated = campaign.simulate(hts).infection;
  // The simulated rate includes warm-up effects (configuration packets
  // still propagating during the first measured epoch on big meshes), so
  // allow a modest tolerance.
  EXPECT_NEAR(simulated, analytic, 0.08)
      << "nodes=" << p.nodes << " hts=" << p.hts;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InfectionAgreementTest,
    ::testing::Values(
        AgreementParam{64, system::GmPlacement::kCenter,
                       AgreementParam::Layout::kCenter, 4, 1},
        AgreementParam{64, system::GmPlacement::kCenter,
                       AgreementParam::Layout::kRandom, 8, 2},
        AgreementParam{64, system::GmPlacement::kCenter,
                       AgreementParam::Layout::kCorner, 6, 3},
        AgreementParam{64, system::GmPlacement::kCorner,
                       AgreementParam::Layout::kRandom, 8, 4},
        AgreementParam{64, system::GmPlacement::kCenter,
                       AgreementParam::Layout::kTargeted, 16, 5},
        AgreementParam{128, system::GmPlacement::kCenter,
                       AgreementParam::Layout::kRandom, 12, 6},
        AgreementParam{128, system::GmPlacement::kCorner,
                       AgreementParam::Layout::kCenter, 8, 7},
        AgreementParam{256, system::GmPlacement::kCenter,
                       AgreementParam::Layout::kRandom, 20, 8},
        AgreementParam{256, system::GmPlacement::kCenter,
                       AgreementParam::Layout::kTargeted, 32, 9}));

}  // namespace
}  // namespace htpb::core
