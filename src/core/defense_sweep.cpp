#include "core/defense_sweep.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "power/request_trace.hpp"

namespace htpb::core {

namespace {

/// Cores the detector watches, split by allegiance (rates are defined
/// over these populations).
struct MonitoredCores {
  int victims = 0;
  int attackers = 0;
  [[nodiscard]] int total() const noexcept { return victims + attackers; }
};

MonitoredCores count_cores(const AttackCampaign& campaign) {
  MonitoredCores mc;
  for (const auto& app : campaign.apps()) {
    (app.is_attacker() ? mc.attackers : mc.victims) +=
        static_cast<int>(app.cores.size());
  }
  return mc;
}

}  // namespace

DefenseSweep::DefenseSweep(DefenseSweepConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.detectors.empty()) {
    throw std::invalid_argument("DefenseSweep: no detector operating points");
  }
  if (cfg_.placements.empty()) {
    throw std::invalid_argument("DefenseSweep: no placements");
  }
}

std::vector<DefenseCurvePoint> DefenseSweep::run(
    const ParallelSweepRunner& runner) const {
  const std::size_t d_count = cfg_.detectors.size();
  const std::size_t p_count = cfg_.placements.size();

  // Detection arm, record-once/replay-many: detectors are observational,
  // so every operating point shares both the baseline and each
  // placement's dynamics. One master campaign (shared baseline), one
  // *recorded* simulation per placement, then every detector replays the
  // placement's request trace offline -- O(placements) simulations plus
  // O(placements x detectors) cheap replays, where the old arm
  // re-simulated every (detector, placement) cell. Replayed reports are
  // bit-identical to what an in-simulation detector would have filed
  // (the request_trace contract), so the curve is unchanged.
  CampaignConfig detect_cfg = cfg_.base;
  detect_cfg.detector.reset();
  detect_cfg.response.reset();
  AttackCampaign master(detect_cfg);
  master.prime_baseline();
  const MonitoredCores cores = count_cores(master);

  const auto traced = runner.map(p_count, [&](std::size_t p) {
    AttackCampaign clone(master);
    return clone.run_traced(cfg_.placements[p]);
  });
  const auto replayed = runner.map(d_count * p_count, [&](std::size_t i) {
    // Mirror the in-sim engagement rule: no Trojans implanted, no report.
    if (cfg_.placements[i % p_count].empty()) {
      return std::optional<power::DetectorReport>{};
    }
    return std::optional{power::replay_detector(traced[i % p_count].trace,
                                                cfg_.detectors[i / p_count])};
  });

  // Clean arm (false positives): Trojans implanted but dormant, so the
  // manager sees honest traffic -- identical dynamics for every operating
  // point. One dormant recording, replayed through the whole grid. With
  // no Trojans implanted no detector engages, so there are no reports.
  std::vector<std::optional<power::DetectorReport>> clean(d_count);
  if (!cfg_.placements.front().empty()) {
    CampaignConfig clean_cfg = cfg_.base;
    clean_cfg.detector.reset();
    clean_cfg.response.reset();
    clean_cfg.trojan.active = false;
    clean_cfg.toggle_period_epochs = 0;  // never wakes up
    AttackCampaign clean_campaign(clean_cfg);
    const power::RequestTrace clean_trace =
        clean_campaign.record_trace(cfg_.placements.front());
    clean = runner.map(d_count, [&](std::size_t d) {
      return std::optional{
          power::replay_detector(clean_trace, cfg_.detectors[d])};
    });
  }

  // Guard arm: the GuardedBudgeter changes the dynamics (and therefore
  // the baseline), so each operating point primes its own master -- in
  // parallel -- before its placements fan out.
  const auto guard_masters = runner.map(d_count, [&](std::size_t d) {
    CampaignConfig guard_cfg = cfg_.base;
    guard_cfg.detector.reset();
    guard_cfg.response.reset();
    guard_cfg.system.guard_requests = true;
    guard_cfg.system.guard_config = cfg_.detectors[d];
    auto m = std::make_shared<AttackCampaign>(guard_cfg);
    m->prime_baseline();
    return m;
  });
  const auto guarded = runner.map(d_count * p_count, [&](std::size_t i) {
    AttackCampaign clone(*guard_masters[i / p_count]);
    return clone.run(cfg_.placements[i % p_count]);
  });

  std::vector<DefenseCurvePoint> curve(d_count);
  for (std::size_t d = 0; d < d_count; ++d) {
    DefenseCurvePoint& pt = curve[d];
    pt.detector = cfg_.detectors[d];
    pt.cells.resize(p_count);
    double latency_sum = 0.0;
    int latency_n = 0;
    double q_sum = 0.0;
    int q_n = 0;
    for (std::size_t p = 0; p < p_count; ++p) {
      DefenseCell& cell = pt.cells[p];
      cell.detector_index = d;
      cell.placement_index = p;
      cell.outcome = traced[p].outcome;
      cell.outcome.detection = replayed[d * p_count + p];
      if (cell.outcome.detection.has_value()) {
        const power::DetectorReport& rep = *cell.outcome.detection;
        if (cores.victims > 0) {
          cell.victim_flag_rate =
              static_cast<double>(rep.flagged_low.size()) / cores.victims;
        }
        if (cores.attackers > 0) {
          cell.attacker_flag_rate =
              static_cast<double>(rep.flagged_high.size()) / cores.attackers;
        }
        if (cores.total() > 0) {
          // Distinct cores only: under duty-cycle swings one core can sit
          // in both flag lists, and summing the lists pushed this past 1.
          pt.detection_rate +=
              static_cast<double>(rep.unique_flagged()) / cores.total();
        }
        if (rep.first_flag_epoch >= 0) {
          latency_sum += rep.first_flag_epoch;
          ++latency_n;
        }
      }
      pt.victim_flag_rate += cell.victim_flag_rate;
      pt.attacker_flag_rate += cell.attacker_flag_rate;
      if (cell.outcome.q_valid) {
        q_sum += cell.outcome.q;
        ++q_n;
      }
    }
    const auto denom = static_cast<double>(p_count);
    pt.detection_rate /= denom;
    pt.victim_flag_rate /= denom;
    pt.attacker_flag_rate /= denom;
    if (latency_n > 0) pt.mean_detection_latency = latency_sum / latency_n;
    if (q_n > 0) pt.mean_q_plain = q_sum / q_n;

    if (clean[d].has_value() && cores.total() > 0) {
      const power::DetectorReport& rep = *clean[d];
      pt.false_positive_rate =
          static_cast<double>(rep.unique_flagged()) / cores.total();
    }
    double gq_sum = 0.0;
    int gq_n = 0;
    for (std::size_t p = 0; p < p_count; ++p) {
      const CampaignOutcome& g = guarded[d * p_count + p];
      if (g.q_valid) {
        gq_sum += g.q;
        ++gq_n;
      }
    }
    if (gq_n > 0) pt.mean_q_guarded = gq_sum / gq_n;
  }
  return curve;
}

}  // namespace htpb::core
