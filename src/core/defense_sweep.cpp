#include "core/defense_sweep.hpp"

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
  // placement's dynamics. One *recorded* simulation per placement, then
  // every detector replays the placement's request trace offline --
  // O(placements) simulations plus O(placements x detectors) cheap
  // replays. Replayed reports are bit-identical to what an in-simulation
  // detector would have filed (the request_trace contract).
  CampaignConfig detect_cfg = cfg_.base;
  detect_cfg.detector.reset();
  detect_cfg.response.reset();
  const AttackCampaign detect(detect_cfg);
  const MonitoredCores cores = count_cores(detect);

  // Clean arm (false positives): Trojans implanted but dormant, so the
  // manager sees honest traffic -- identical dynamics for every operating
  // point. One dormant recording, replayed through the whole grid. With
  // no Trojans implanted no detector engages, so there are no reports.
  CampaignConfig clean_cfg = detect_cfg;
  clean_cfg.trojan.active = false;
  clean_cfg.toggle_period_epochs = 0;  // never wakes up
  const AttackCampaign clean_campaign(clean_cfg);

  // Guard arm: the GuardedBudgeter changes the dynamics (and therefore
  // the baseline), so each operating point has its own chip side.
  std::vector<AttackCampaign> guards;
  for (const power::DetectorConfig& d : cfg_.detectors) {
    CampaignConfig guard_cfg = detect_cfg;
    guard_cfg.system.guard_requests = true;
    guard_cfg.system.guard_config = d;
    guards.emplace_back(std::move(guard_cfg));
  }

  // Every simulation in one fan-out: the detection baseline and traced
  // placements, the clean recording (skipped when the first placement
  // implants nothing), then per operating point the guard baseline and
  // its placements.
  std::vector<power::RequestTrace> traces(p_count + 1);  // clean last
  const std::size_t clean_at = 1 + p_count;
  const std::size_t guard_at =
      clean_at + (cfg_.placements.front().empty() ? 0 : 1);
  const std::size_t per_point = 1 + p_count;
  const auto runs = runner.map(guard_at + d_count * per_point,
                               [&](std::size_t i) {
    if (i == 0) return detect.simulate({});
    if (i < clean_at) {
      return detect.simulate(cfg_.placements[i - 1], &traces[i - 1]);
    }
    if (i < guard_at) {
      return clean_campaign.simulate(cfg_.placements.front(),
                                     &traces[p_count]);
    }
    const AttackCampaign& guard = guards[(i - guard_at) / per_point];
    const std::size_t p = (i - guard_at) % per_point;
    return p == 0 ? guard.simulate({}) : guard.simulate(cfg_.placements[p - 1]);
  });

  // Every operating point replays each placement's trace, then the clean
  // one (trace p_count, recorded on the first placement).
  const auto replayed = runner.map(d_count * per_point, [&](std::size_t i) {
    const std::size_t t = i % per_point;
    // Mirror the in-sim engagement rule: no Trojans implanted, no report.
    if (cfg_.placements[t == p_count ? 0 : t].empty()) {
      return std::optional<power::DetectorReport>{};
    }
    return std::optional{
        power::replay_detector(traces[t], cfg_.detectors[i / per_point])};
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
      cell.outcome = detect.reduce(runs[1 + p], runs[0], cfg_.placements[p]);
      cell.outcome.detection = replayed[d * per_point + p];
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

    const auto& clean = replayed[d * per_point + p_count];
    if (clean.has_value() && cores.total() > 0) {
      const power::DetectorReport& rep = *clean;
      pt.false_positive_rate =
          static_cast<double>(rep.unique_flagged()) / cores.total();
    }
    double gq_sum = 0.0;
    int gq_n = 0;
    const std::size_t g_at = guard_at + d * per_point;
    for (std::size_t p = 0; p < p_count; ++p) {
      const CampaignOutcome g =
          guards[d].reduce(runs[g_at + 1 + p], runs[g_at], cfg_.placements[p]);
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
