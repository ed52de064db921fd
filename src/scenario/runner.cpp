#include "scenario/runner.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/area_power.hpp"
#include "core/attack_model.hpp"
#include "core/campaign.hpp"
#include "core/infection.hpp"
#include "core/optimizer.hpp"
#include "core/parallel_sweep.hpp"
#include "core/placement.hpp"
#include "noc/network.hpp"
#include "sim/engine.hpp"
#include "workload/application.hpp"
#include "workload/benchmark_profile.hpp"

namespace htpb::scenario {

namespace {

[[nodiscard]] double now_seconds() {
  using clock = std::chrono::steady_clock;
  // htpb-lint: allow(nondet-call) elapsed time reported as run metadata, not part of scenario results
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

/// `spec.system` with the mesh swapped for a paper preset size.
[[nodiscard]] SystemSpec system_with_size(const SystemSpec& base, int nodes) {
  SystemSpec out = base;
  const auto [w, h] = mesh_for_size(nodes);
  out.width = w;
  out.height = h;
  return out;
}

[[nodiscard]] std::vector<NodeId> resolve_cluster(const ClusterSpec& c,
                                                  const MeshGeometry& geom,
                                                  NodeId gm) {
  Coord at{};
  switch (c.at) {
    case ClusterSpec::At::kGm: at = geom.coord_of(gm); break;
    case ClusterSpec::At::kCenter: at = geom.center(); break;
    case ClusterSpec::At::kCorner: at = MeshGeometry::corner(); break;
    case ClusterSpec::At::kQuarter:
      at = Coord{geom.width() / 4, geom.height() / 4};
      break;
  }
  return core::clustered_placement(geom, c.hts, at, gm);
}

/// axes.placements resolved on the spec's mesh around the manager `gm`.
[[nodiscard]] std::vector<std::vector<NodeId>> resolve_placements(
    const ScenarioSpec& spec, NodeId gm) {
  const MeshGeometry geom(spec.system.width, spec.system.height);
  std::vector<std::vector<NodeId>> placements;
  for (const ClusterSpec& cluster : spec.axes.placements) {
    placements.push_back(resolve_cluster(cluster, geom, gm));
  }
  return placements;
}

/// The cores `campaign` maps to victim and to attacker applications.
struct CoreSplit {
  int victims = 0;
  int attackers = 0;
};
[[nodiscard]] CoreSplit core_split(const core::AttackCampaign& campaign) {
  CoreSplit split;
  for (const auto& app : campaign.apps()) {
    (app.is_attacker() ? split.attackers : split.victims) +=
        static_cast<int>(app.cores.size());
  }
  return split;
}

/// The spec's `detector` section, or DetectorConfig{} without one. A
/// defense sweep varies only its band (and, on the ROC grid, its kind);
/// defense-evaluation's detection and guard arms use it as it is.
[[nodiscard]] power::DetectorConfig base_detector(const ScenarioSpec& spec) {
  return spec.detector.value_or(power::DetectorConfig{});
}

/// The {ewma, cohort} x axes.bands detector grid shared by the defense
/// sweep's ROC replay and the --replay-trace surface -- one builder so
/// the two can never diverge in grid order or membership.
[[nodiscard]] std::vector<power::DetectorConfig> roc_detector_grid(
    const ScenarioSpec& spec) {
  std::vector<power::DetectorConfig> grid;
  for (const auto kind :
       {power::DetectorKind::kSelfEwma, power::DetectorKind::kCohortMedian}) {
    for (const BandSpec& band : spec.axes.bands) {
      power::DetectorConfig d = base_detector(spec);
      d.kind = kind;
      d.low_ratio = band.low;
      d.high_ratio = band.high;
      grid.push_back(d);
    }
  }
  return grid;
}

[[nodiscard]] json::Value app_list(const core::AttackCampaign& campaign) {
  json::Array apps;
  for (const auto& app : campaign.apps()) {
    json::Object ao;
    ao["name"] = json::Value(app.profile.name);
    ao["attacker"] = json::Value(app.is_attacker());
    ao["cores"] = json::Value(static_cast<long long>(app.cores.size()));
    apps.push_back(json::Value(std::move(ao)));
  }
  return json::Value(std::move(apps));
}

// ------------------------------------------------------------ per kind

/// Fig. 3. Stochastic contract (= the legacy bench): random placements
/// for cell (seed index s, #HTs h) draw from Rng(seed + s*77 + h); the
/// default seed 1000 reproduces the pre-registry bench bit for bit.
/// Every arm x ht x gm x seed leg runs in one flat fan-out, each on its
/// own campaign; the per-cell means add the legs in seed order.
json::Value run_infection_vs_ht_count(const ScenarioSpec& spec,
                                      const core::ParallelSweepRunner& runner) {
  struct Leg {
    int nodes;
    int hts;
    system::GmPlacement gm;
    int s;
  };
  std::vector<Leg> legs;
  for (const InfectionArm& arm : spec.axes.arms) {
    for (const int hts : arm.ht_counts) {
      for (const system::GmPlacement gm : spec.axes.gm_placements) {
        for (int s = 0; s < spec.axes.seeds; ++s) {
          legs.push_back({arm.nodes, hts, gm, s});
        }
      }
    }
  }
  struct Rates {
    double simulated = 0.0;
    double analytic = 0.0;
  };
  const auto rates = runner.map(legs.size(), [&](std::size_t i) {
    const Leg& leg = legs[i];
    ScenarioSpec cell_spec = spec;
    cell_spec.system = system_with_size(spec.system, leg.nodes);
    cell_spec.system.gm_placement = leg.gm;
    core::AttackCampaign campaign(campaign_config(cell_spec, ""));
    const MeshGeometry geom(cell_spec.system.width, cell_spec.system.height);
    Rng rng(spec.seed + static_cast<std::uint64_t>(leg.s) * 77 +
            static_cast<std::uint64_t>(leg.hts));
    const auto nodes =
        core::random_placement(geom, leg.hts, rng, campaign.gm_node());
    return Rates{campaign.simulate(nodes).infection,
                 core::InfectionAnalyzer(geom, campaign.gm_node())
                     .predicted_rate(nodes)};
  });

  std::size_t i = 0;
  json::Array arms;
  for (const InfectionArm& arm : spec.axes.arms) {
    json::Array rows;
    for (const int hts : arm.ht_counts) {
      json::Array cells;
      for (const system::GmPlacement gm : spec.axes.gm_placements) {
        double simulated = 0.0;
        double analytic = 0.0;
        for (int s = 0; s < spec.axes.seeds; ++s, ++i) {
          simulated += rates[i].simulated;
          analytic += rates[i].analytic;
        }
        json::Object cell;
        cell["gm"] = json::Value(to_string(gm));
        cell["simulated"] = json::Value(simulated / spec.axes.seeds);
        cell["analytic"] = json::Value(analytic / spec.axes.seeds);
        cells.push_back(json::Value(std::move(cell)));
      }
      json::Object row;
      row["hts"] = json::Value(hts);
      row["cells"] = json::Value(std::move(cells));
      rows.push_back(json::Value(std::move(row)));
    }
    json::Object arm_out;
    arm_out["nodes"] = json::Value(arm.nodes);
    arm_out["rows"] = json::Value(std::move(rows));
    arms.push_back(json::Value(std::move(arm_out)));
  }
  json::Object payload;
  payload["arms"] = json::Value(std::move(arms));
  return json::Value(std::move(payload));
}

/// Fig. 4. Random-placement cells draw from Rng(seed + s*13 + size);
/// seed 500 reproduces the legacy bench. Every divisor x size cell's
/// center, corner and random-seed legs run in one flat fan-out.
json::Value run_infection_vs_distribution(
    const ScenarioSpec& spec, const core::ParallelSweepRunner& runner) {
  // Per (divisor, size) cell: leg 0 = center cluster, 1 = corner cluster,
  // 2 + s = random placement s.
  const std::size_t per_cell = 2 + static_cast<std::size_t>(spec.axes.seeds);
  const std::size_t sizes = spec.axes.sizes.size();
  const auto leg_rate = [&](std::size_t i) {
    const std::size_t cell = i / per_cell;
    const std::size_t leg = i % per_cell;
    const int size = spec.axes.sizes[cell % sizes];
    const int hts = size / spec.axes.ht_divisors[cell / sizes];
    ScenarioSpec cell_spec = spec;
    cell_spec.system = system_with_size(spec.system, size);
    core::AttackCampaign campaign(campaign_config(cell_spec, ""));
    const MeshGeometry geom(cell_spec.system.width, cell_spec.system.height);
    if (leg < 2) {
      const ClusterSpec cluster{
          leg == 0 ? ClusterSpec::At::kCenter : ClusterSpec::At::kCorner, hts};
      return campaign
          .simulate(resolve_cluster(cluster, geom, campaign.gm_node()))
          .infection;
    }
    Rng rng(spec.seed + static_cast<std::uint64_t>(leg - 2) * 13 +
            static_cast<std::uint64_t>(size));
    return campaign
        .simulate(core::random_placement(geom, hts, rng, campaign.gm_node()))
        .infection;
  };
  const auto rates =
      runner.map(spec.axes.ht_divisors.size() * sizes * per_cell, leg_rate);

  std::size_t i = 0;
  json::Array divisors;
  for (const int divisor : spec.axes.ht_divisors) {
    json::Array rows;
    for (const int size : spec.axes.sizes) {
      const double rate_center = rates[i];
      const double rate_corner = rates[i + 1];
      double rate_random = 0.0;
      for (std::size_t s = 2; s < per_cell; ++s) rate_random += rates[i + s];
      rate_random /= spec.axes.seeds;
      i += per_cell;

      json::Object row;
      row["size"] = json::Value(size);
      row["hts"] = json::Value(size / divisor);
      row["center"] = json::Value(rate_center);
      row["random"] = json::Value(rate_random);
      row["corner"] = json::Value(rate_corner);
      rows.push_back(json::Value(std::move(row)));
    }
    json::Object d;
    d["divisor"] = json::Value(divisor);
    d["rows"] = json::Value(std::move(rows));
    divisors.push_back(json::Value(std::move(d)));
  }
  json::Object payload;
  payload["divisors"] = json::Value(std::move(divisors));
  return json::Value(std::move(payload));
}

/// Figs. 5 and 6 share one sweep: per mix, greedy target-coverage
/// placements off one serial Rng(seed) stream (legacy constant: 42).
/// Every mix's baseline and every mix x target leg run in one flat
/// fan-out. The result carries both the Q reduction (Fig. 5) and the
/// per-app Theta detail (Fig. 6).
json::Value run_attack_sweep(const ScenarioSpec& spec,
                             const core::ParallelSweepRunner& runner) {
  const std::vector<std::string>& mixes = spec.workload.mixes;
  const std::vector<double>& targets = spec.axes.infection_targets;
  const MeshGeometry geom(spec.system.width, spec.system.height);
  std::vector<core::AttackCampaign> campaigns;
  // Per mix: the baseline (an empty set), then one set per target.
  std::vector<std::vector<NodeId>> node_sets;
  const std::size_t per_mix = 1 + targets.size();
  node_sets.reserve(mixes.size() * per_mix);
  for (const std::string& mix : mixes) {
    const auto& campaign = campaigns.emplace_back(campaign_config(spec, mix));
    const core::InfectionAnalyzer analyzer(geom, campaign.gm_node());
    Rng rng(spec.seed);
    node_sets.emplace_back();
    for (const double target : targets) {
      node_sets.push_back(analyzer.placement_for_target(
          target, spec.axes.max_hts, rng));
    }
  }
  const auto runs = runner.map(node_sets.size(), [&](std::size_t i) {
    return campaigns[i / per_mix].simulate(node_sets[i]);
  });

  json::Array mixes_out;
  for (std::size_t m = 0; m < mixes.size(); ++m) {
    json::Array rows;
    for (std::size_t t = 0; t < targets.size(); ++t) {
      const std::size_t i = m * per_mix + 1 + t;
      const core::CampaignOutcome out =
          campaigns[m].reduce(runs[i], runs[m * per_mix], node_sets[i]);
      json::Object row;
      row["target"] = json::Value(targets[t]);
      row["infection"] = json::Value(out.infection_measured);
      row["q"] = json::Value(out.q);
      json::Array changes;
      for (const auto& app : out.apps) {
        changes.push_back(json::Value(app.change));
      }
      row["theta_change"] = json::Value(std::move(changes));
      rows.push_back(json::Value(std::move(row)));
    }
    json::Object mix_out;
    mix_out["mix"] = json::Value(mixes[m]);
    mix_out["apps"] = app_list(campaigns[m]);
    mix_out["rows"] = json::Value(std::move(rows));
    mixes_out.push_back(json::Value(std::move(mix_out)));
  }
  json::Object payload;
  payload["mixes"] = json::Value(std::move(mixes_out));
  return json::Value(std::move(payload));
}

/// Sec. V-C. Per-mix stream: Rng(seed + mix index); inside it the legacy
/// draw order is preserved exactly (train placements, then the
/// optimizer's stream seed, then the random-trial placements).
json::Value run_placement_study(const ScenarioSpec& spec,
                                const core::ParallelSweepRunner& runner) {
  json::Array mixes_out;
  for (std::size_t mix_i = 0; mix_i < spec.workload.mixes.size(); ++mix_i) {
    const core::AttackCampaign campaign(
        campaign_config(spec, spec.workload.mixes[mix_i]));
    const MeshGeometry geom(spec.system.width, spec.system.height);
    Rng rng(spec.seed + static_cast<std::uint64_t>(mix_i));
    const auto simulate_all = [&](const std::vector<std::vector<NodeId>>& sets) {
      return runner.map(sets.size(), [&](std::size_t i) {
        return campaign.simulate(sets[i]);
      });
    };

    // Phase 1: sample diverse placements (serially, from one stream) and
    // simulate them, with the mix's baseline, across the pool to record
    // (rho, eta, m, Q).
    std::vector<std::vector<NodeId>> train(1);  // [0] = {}: the baseline
    train.reserve(1 + static_cast<std::size_t>(spec.axes.train_samples));
    for (int i = 0; i < spec.axes.train_samples; ++i) {
      const int m =
          1 + static_cast<int>(rng.below(
                  static_cast<std::uint64_t>(spec.axes.max_hts)));
      train.push_back(core::candidate_placements(geom, campaign.gm_node(), m,
                                                 1, rng)
                          .front()
                          .nodes);
    }
    const auto train_runs = simulate_all(train);
    const core::RunResult& baseline = train_runs[0];

    std::vector<core::AttackSample> samples;
    std::vector<double> phi_victims;
    std::vector<double> phi_attackers;
    for (std::size_t i = 1; i < train.size(); ++i) {
      const core::CampaignOutcome out =
          campaign.reduce(train_runs[i], baseline, train[i]);
      core::AttackSample s;
      s.rho = out.geometry.rho;
      s.eta = out.geometry.eta;
      s.m = out.geometry.m;
      for (const auto& app : out.apps) {
        (app.attacker ? s.phi_attackers : s.phi_victims).push_back(app.phi);
      }
      s.q = out.q;
      if (phi_victims.empty()) {
        phi_victims = s.phi_victims;
        phi_attackers = s.phi_attackers;
      }
      samples.push_back(std::move(s));
    }

    // Phase 2: fit Eq. 9 and enumerate (Eq. 10-11) across the pool; the
    // attacker validates the short list in simulation before committing,
    // in one fan-out with the random-placement trials it is judged by.
    core::AttackEffectModel model;
    model.fit(samples);
    core::PlacementOptimizer optimizer(geom, campaign.gm_node(), &model,
                                       phi_victims, phi_attackers);
    const auto shortlist = optimizer.optimize_top_k(
        spec.axes.max_hts, spec.axes.candidates_per_m, spec.axes.shortlist,
        rng(), runner);
    std::vector<std::vector<NodeId>> trials;  // shortlist, then random
    trials.reserve(shortlist.size() +
                   static_cast<std::size_t>(spec.axes.random_trials));
    for (const auto& r : shortlist) trials.push_back(r.placement.nodes);
    for (int t = 0; t < spec.axes.random_trials; ++t) {
      trials.push_back(core::random_placement(geom, spec.axes.max_hts, rng,
                                              campaign.gm_node()));
    }
    const auto trial_runs = simulate_all(trials);
    std::vector<double> q(trials.size());
    for (std::size_t i = 0; i < trials.size(); ++i) {
      q[i] = campaign.reduce(trial_runs[i], baseline, trials[i]).q;
    }
    std::size_t best = 0;
    for (std::size_t c = 1; c < shortlist.size(); ++c) {
      if (q[c] > q[best]) best = c;
    }
    double q_random = 0.0;
    for (std::size_t i = shortlist.size(); i < trials.size(); ++i) {
      q_random += q[i];
    }
    q_random /= spec.axes.random_trials;

    json::Object row;
    row["mix"] = json::Value(spec.workload.mixes[mix_i]);
    row["q_random"] = json::Value(q_random);
    // Realized Q of the model's top-scored candidate vs the deployed
    // (best-validated) one.
    row["q_model_top"] = json::Value(q[0]);
    row["q_deployed"] = json::Value(q[best]);
    row["gain"] = json::Value(q[best] / q_random - 1.0);
    row["model_r2"] = json::Value(model.r2());
    row["predicted_q"] = json::Value(shortlist[best].predicted_q);
    mixes_out.push_back(json::Value(std::move(row)));
  }
  json::Object payload;
  payload["mixes"] = json::Value(std::move(mixes_out));
  return json::Value(std::move(payload));
}

/// Defense ROC (an extension of Sec. VI): a curve of trust-band
/// operating points x placements, plus the dense stealthy-Trojan grid
/// (duty-cycle period x modification factor x band x detector kind).
///
/// Detectors never perturb the dynamics, so every operating point of
/// both grids replays a recorded request trace (power::RequestTrace)
/// offline, bit-identical to in-simulation detection. Three steps: one
/// pool pass over every simulation, one over every replay, one
/// reduction. For D bands, P placements and R = periods x factors
/// dynamics cells recorded on the first C placements, the simulations
/// are:
///   - the detection baseline and the P traced placements;
///   - one dormant-Trojan clean trace on the first placement, read by
///     the curve's false-positive rate and by the ROC's cells on the
///     spec's own timing;
///   - per band, a guard baseline and its P placements (the
///     GuardedBudgeter changes the dynamics, so it cannot replay);
///   - the R x C traced ROC cells, plus a clean trace on the period-0
///     timing when the ROC axis holds a period 0.
/// curve.simulations = 1 + P + 1 + D x (1 + P); roc.simulations = R x C
/// (+1 with a period 0).
json::Value run_defense_sweep(const ScenarioSpec& spec,
                              const core::ParallelSweepRunner& runner,
                              json::Object& timing) {
  core::CampaignConfig base = campaign_config(spec, spec.workload.mix);
  base.detector.reset();
  base.response.reset();
  const core::AttackCampaign detect(base);
  const auto placements = resolve_placements(spec, detect.gm_node());
  std::vector<power::DetectorConfig> bands;
  for (const BandSpec& band : spec.axes.bands) {
    power::DetectorConfig d = base_detector(spec);
    d.low_ratio = band.low;
    d.high_ratio = band.high;
    bands.push_back(d);
  }
  const std::size_t p_count = placements.size();

  const RocSpec& roc = spec.axes.roc;
  const std::vector<int> periods =
      roc.enabled() ? roc.periods : std::vector<int>{};
  const std::size_t roc_p =
      roc.enabled() ? static_cast<std::size_t>(roc.placements) : 0;
  std::vector<core::AttackCampaign> cells;  // period-major, then factor
  for (const int period : periods) {
    for (const double factor : roc.factors) {
      core::CampaignConfig cfg = base;
      cfg.trojan.victim_scale = factor;
      if (period == 0) {
        cfg.trojan.active = true;  // always-on, live from power-on
        cfg.toggle_period_epochs = 0;
        // Let the CONFIG_CMD broadcast finish before the first POWER_REQ:
        // the attack-from-epoch-0 scenario the cohort detector exists for.
        cfg.system.first_epoch_cycle = roc.epoch0_first_epoch_cycle;
      } else {
        cfg.trojan.active = false;  // dormant until the first toggle
        cfg.toggle_period_epochs = period;
      }
      cells.emplace_back(std::move(cfg));
    }
  }

  // Trojans implanted but dormant: the manager sees honest traffic, the
  // same for every factor and duty-cycle period but not for every system
  // timing. So there is one clean campaign per timing: the spec's, then
  // the period-0 cells' when the ROC axis holds a period 0.
  std::vector<core::AttackCampaign> cleans;
  core::CampaignConfig dormant = base;
  dormant.trojan.active = false;
  dormant.toggle_period_epochs = 0;  // never wakes up
  cleans.emplace_back(dormant);
  if (std::find(periods.begin(), periods.end(), 0) != periods.end()) {
    dormant.system.first_epoch_cycle = roc.epoch0_first_epoch_cycle;
    cleans.emplace_back(dormant);
  }
  std::vector<core::AttackCampaign> guards;
  for (const power::DetectorConfig& d : bands) {
    core::CampaignConfig cfg = base;
    cfg.system.guard = d;
    guards.emplace_back(std::move(cfg));
  }

  // Traces: the P placements, the clean ones, then the ROC cells
  // (cell-major, then placement).
  const std::size_t cell_trace = p_count + cleans.size();
  std::vector<power::RequestTrace> traces(cell_trace + cells.size() * roc_p);

  struct Sim {
    const core::AttackCampaign* campaign;
    std::span<const NodeId> hts;  ///< empty: the Trojan-free baseline
    power::RequestTrace* trace;   ///< null: untraced
  };
  std::vector<Sim> sims;
  sims.push_back({&detect, {}, nullptr});
  for (std::size_t p = 0; p < p_count; ++p) {
    sims.push_back({&detect, placements[p], &traces[p]});
  }
  sims.push_back({&cleans[0], placements.front(), &traces[p_count]});
  const std::size_t guard_at = sims.size();
  for (const core::AttackCampaign& guard : guards) {
    sims.push_back({&guard, {}, nullptr});
    for (const auto& hts : placements) sims.push_back({&guard, hts, nullptr});
  }
  const std::size_t curve_sims = sims.size();
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (std::size_t p = 0; p < roc_p; ++p) {
      sims.push_back(
          {&cells[c], placements[p], &traces[cell_trace + c * roc_p + p]});
    }
  }
  for (std::size_t k = 1; k < cleans.size(); ++k) {
    sims.push_back({&cleans[k], placements.front(), &traces[p_count + k]});
  }

  const double t_sim0 = now_seconds();
  const auto runs = runner.map(sims.size(), [&](std::size_t i) {
    return sims[i].campaign->simulate(sims[i].hts, sims[i].trace);
  });
  timing["simulate_seconds"] = json::Value(now_seconds() - t_sim0);

  // Replays: per band, its P placements then the clean trace; per ROC
  // detector, the clean traces; then per (cell, ROC detector) its C
  // placements.
  const std::vector<power::DetectorConfig> roc_detectors =
      roc.enabled() ? roc_detector_grid(spec)
                    : std::vector<power::DetectorConfig>{};
  struct Replay {
    const power::RequestTrace* trace;
    const power::DetectorConfig* detector;
  };
  std::vector<Replay> replays;
  for (const power::DetectorConfig& d : bands) {
    for (std::size_t t = 0; t <= p_count; ++t) {
      replays.push_back({&traces[t], &d});
    }
  }
  const std::size_t roc_clean_at = replays.size();
  for (const power::DetectorConfig& d : roc_detectors) {
    for (std::size_t k = 0; k < cleans.size(); ++k) {
      replays.push_back({&traces[p_count + k], &d});
    }
  }
  const std::size_t roc_cell_at = replays.size();
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (const power::DetectorConfig& d : roc_detectors) {
      for (std::size_t p = 0; p < roc_p; ++p) {
        replays.push_back({&traces[cell_trace + c * roc_p + p], &d});
      }
    }
  }
  const double t_rep0 = now_seconds();
  const auto reports = runner.map(replays.size(), [&](std::size_t i) {
    return power::replay_detector(*replays[i].trace, *replays[i].detector);
  });
  timing["replay_seconds"] = json::Value(now_seconds() - t_rep0);

  // Rates are over the cores the detector watches, split by allegiance.
  const auto [victims, attackers] = core_split(detect);
  const int monitored = victims + attackers;
  const auto flag_rate = [&](const power::DetectorReport& rep) {
    // Distinct cores only: under duty-cycle swings one core can sit in
    // both flag lists, and summing the lists pushed this past 1.
    return static_cast<double>(rep.unique_flagged()) / monitored;
  };
  // Over reports rep[0, n): the mean flag rate, and the mean epochs to
  // the first flag over the reports that flagged anything (-1: none did).
  const auto mean_rate = [&](const power::DetectorReport* rep,
                             std::size_t n) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) sum += flag_rate(rep[i]);
    return sum / static_cast<double>(n);
  };
  const auto mean_latency = [](const power::DetectorReport* rep,
                               std::size_t n) {
    double sum = 0.0;
    int flagged = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (rep[i].first_flag_epoch >= 0) {
        sum += rep[i].first_flag_epoch;
        ++flagged;
      }
    }
    return flagged > 0 ? sum / flagged : -1.0;
  };
  // Mean Q of `campaign`'s placements (runs[at + 1 + p]) against its
  // baseline (runs[at]) over the q_valid runs; 0 when none is valid.
  const auto mean_q = [&](const core::AttackCampaign& campaign,
                          std::size_t at) {
    double sum = 0.0;
    int n = 0;
    for (std::size_t p = 0; p < p_count; ++p) {
      const core::CampaignOutcome out =
          campaign.reduce(runs[at + 1 + p], runs[at], placements[p]);
      if (out.q_valid) {
        sum += out.q;
        ++n;
      }
    }
    return n > 0 ? sum / n : 0.0;
  };
  // The detector is passive, so this is the undefended attack effect.
  const double q_plain = mean_q(detect, 0);

  json::Object payload;
  json::Array points;
  for (std::size_t d = 0; d < bands.size(); ++d) {
    const power::DetectorReport* rep = &reports[d * (p_count + 1)];
    double victim_rate = 0.0;
    double attacker_rate = 0.0;
    for (std::size_t p = 0; p < p_count; ++p) {
      if (victims > 0) {
        victim_rate += static_cast<double>(rep[p].flagged_low.size()) / victims;
      }
      if (attackers > 0) {
        attacker_rate +=
            static_cast<double>(rep[p].flagged_high.size()) / attackers;
      }
    }
    const auto denom = static_cast<double>(p_count);
    json::Object pt;
    pt["low"] = json::Value(bands[d].low_ratio);
    pt["high"] = json::Value(bands[d].high_ratio);
    pt["detection_rate"] = json::Value(mean_rate(rep, p_count));
    pt["victim_flag_rate"] = json::Value(victim_rate / denom);
    pt["attacker_flag_rate"] = json::Value(attacker_rate / denom);
    pt["false_positive_rate"] = json::Value(flag_rate(rep[p_count]));
    pt["mean_detection_latency"] = json::Value(mean_latency(rep, p_count));
    pt["mean_q_plain"] = json::Value(q_plain);
    pt["mean_q_guarded"] =
        json::Value(mean_q(guards[d], guard_at + d * (1 + p_count)));
    points.push_back(json::Value(std::move(pt)));
  }
  json::Object curve_out;
  curve_out["operating_points"] =
      json::Value(static_cast<long long>(bands.size()));
  curve_out["placements"] = json::Value(static_cast<long long>(p_count));
  curve_out["simulations"] = json::Value(static_cast<long long>(curve_sims));
  curve_out["points"] = json::Value(std::move(points));
  payload["curve"] = json::Value(std::move(curve_out));

  if (!roc.enabled()) return json::Value(std::move(payload));

  json::Array roc_points;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const int period = periods[c / roc.factors.size()];
    for (std::size_t d = 0; d < roc_detectors.size(); ++d) {
      const power::DetectorReport* rep =
          &reports[roc_cell_at + (c * roc_detectors.size() + d) * roc_p];
      const std::size_t fp_at =
          roc_clean_at + d * cleans.size() + (period == 0 ? 1 : 0);
      json::Object pt;
      pt["period"] = json::Value(period);
      pt["factor"] = json::Value(roc.factors[c % roc.factors.size()]);
      pt["kind"] = json::Value(to_string(roc_detectors[d].kind));
      pt["lo"] = json::Value(roc_detectors[d].low_ratio);
      pt["hi"] = json::Value(roc_detectors[d].high_ratio);
      pt["detect"] = json::Value(mean_rate(rep, roc_p));
      pt["fp"] = json::Value(flag_rate(reports[fp_at]));
      pt["latency"] = json::Value(mean_latency(rep, roc_p));
      roc_points.push_back(json::Value(std::move(pt)));
    }
  }
  json::Object roc_out;
  roc_out["dynamics_cells"] = json::Value(static_cast<long long>(cells.size()));
  roc_out["placements"] = json::Value(static_cast<long long>(roc_p));
  roc_out["detector_grid"] =
      json::Value(static_cast<long long>(roc_detectors.size()));
  roc_out["simulations"] =
      json::Value(static_cast<long long>(sims.size() - curve_sims));
  roc_out["replays"] =
      json::Value(static_cast<long long>(replays.size() - roc_clean_at));
  roc_out["points"] = json::Value(std::move(roc_points));
  payload["roc"] = json::Value(std::move(roc_out));
  return json::Value(std::move(payload));
}

/// Detection & mitigation arms per mix (the defense-evaluation scenario).
/// The detection/clean arms use the spec's trojan schedule (mid-run
/// activation) and axes.detection_measure_epochs; the damage arms pin
/// the Trojan always-on so plain and guarded Q are directly comparable.
/// Every mix's simulations run in one fan-out.
json::Value run_defense_evaluation(const ScenarioSpec& spec,
                                   const core::ParallelSweepRunner& runner) {
  // Per mix, four arms on campaigns of their own: detect, plain, clean,
  // guarded (arms[4 * mix + arm]), all attacking the one axes.placements
  // cluster.
  std::vector<core::AttackCampaign> arms;
  std::vector<std::vector<NodeId>> hts;
  for (const std::string& mix_name : spec.workload.mixes) {
    // Detection arm (mid-run activation); the run owns its detector.
    ScenarioSpec detect_spec = spec;
    detect_spec.epochs.measure = spec.axes.detection_measure_epochs;
    detect_spec.detector = base_detector(spec);
    // Damage arms: attack always on, no detector (and so no response).
    ScenarioSpec damage_spec = spec;
    damage_spec.trojan.active = true;
    damage_spec.trojan.toggle_period_epochs = 0;
    damage_spec.detector.reset();
    damage_spec.response.reset();
    // False positives: same chip, Trojans never activated. Forced
    // dormant: the arm must stay clean even for a spec whose trojan
    // starts active.
    ScenarioSpec clean_spec = detect_spec;
    clean_spec.trojan.active = false;
    clean_spec.trojan.toggle_period_epochs = 0;
    for (const ScenarioSpec* arm : {&detect_spec, &damage_spec, &clean_spec}) {
      arms.emplace_back(campaign_config(*arm, mix_name));
    }
    // Mitigation arm: the GuardedBudgeter clamps requests into the
    // detector's band.
    core::CampaignConfig guard_cfg = campaign_config(damage_spec, mix_name);
    guard_cfg.system.guard = detect_spec.detector;
    arms.emplace_back(std::move(guard_cfg));
    hts.push_back(resolve_placements(spec, arms.back().gm_node()).front());
  }

  // Per mix, six simulations: every arm's attacked run, and the
  // baselines of the plain and guarded arms. The detect and clean arms
  // read only their detector reports, so they need no baseline.
  struct Sim {
    std::size_t arm;
    bool baseline;
  };
  constexpr Sim kSims[] = {{0, false}, {1, true},  {1, false},
                           {2, false}, {3, true},  {3, false}};
  constexpr std::size_t kPerMix = std::size(kSims);
  const auto runs = runner.map(hts.size() * kPerMix, [&](std::size_t i) {
    const Sim& sim = kSims[i % kPerMix];
    const core::AttackCampaign& arm = arms[4 * (i / kPerMix) + sim.arm];
    return sim.baseline ? arm.simulate({}) : arm.simulate(hts[i / kPerMix]);
  });

  json::Array rows;
  for (std::size_t k = 0; k < hts.size(); ++k) {
    const core::AttackCampaign* arm = &arms[4 * k];
    const core::RunResult* r = &runs[k * kPerMix];
    const power::DetectorReport report =
        r[0].detection.value_or(power::DetectorReport{});
    const auto plain = arm[1].reduce(r[2], r[1], hts[k]);
    // Distinct cores flagged on the clean chip, as defense-roc counts.
    const auto false_pos =
        r[3].detection.value_or(power::DetectorReport{}).unique_flagged();
    const auto mitigated = arm[3].reduce(r[5], r[4], hts[k]);
    const auto [victims, attackers] = core_split(arm[0]);
    double worst = 1.0;
    for (const auto& app : mitigated.apps) {
      if (!app.attacker) worst = std::min(worst, app.change);
    }

    json::Object row;
    row["mix"] = json::Value(spec.workload.mixes[k]);
    row["q_plain"] = json::Value(plain.q);
    row["q_guarded"] = json::Value(mitigated.q);
    row["victims_flagged"] =
        json::Value(static_cast<long long>(report.flagged_low.size()));
    row["victim_cores"] = json::Value(victims);
    row["attackers_flagged"] =
        json::Value(static_cast<long long>(report.flagged_high.size()));
    row["attacker_cores"] = json::Value(attackers);
    row["false_positives"] = json::Value(static_cast<long long>(false_pos));
    row["worst_victim_theta"] = json::Value(worst);
    rows.push_back(json::Value(std::move(row)));
  }
  json::Object payload;
  payload["rows"] = json::Value(std::move(rows));
  return json::Value(std::move(payload));
}

/// False-data vs flooding on damage and detectability, plus the
/// duty-cycle stealth/damage dial. The clean reference is the false-data
/// baseline. Flooder i at source node `src` draws from Rng(seed + src) --
/// the legacy constant 7 reproduces the bench. Every simulation runs in
/// one fan-out.
json::Value run_attack_comparison(const ScenarioSpec& spec,
                                  const core::ParallelSweepRunner& runner) {
  // The paper's false-data attack, and the flooding DoS against the
  // manager on the same chip with no defense.
  const core::AttackCampaign campaign(
      campaign_config(spec, spec.workload.mix));
  const auto hts = resolve_placements(spec, campaign.gm_node()).front();
  core::CampaignConfig flood_cfg = campaign_config(spec, spec.workload.mix);
  flood_cfg.flooding = core::FloodingConfig{spec.axes.flood_rate, spec.seed};
  flood_cfg.detector.reset();
  flood_cfg.response.reset();
  const core::AttackCampaign flood(std::move(flood_cfg));
  // The duty-cycled activation sweep: every period shares the duty
  // warmup/measure window and so one baseline.
  ScenarioSpec duty_spec = spec;
  duty_spec.epochs.warmup = spec.axes.duty_warmup_epochs;
  duty_spec.epochs.measure = spec.axes.duty_measure_epochs;
  std::vector<core::AttackCampaign> duty;
  for (const int period : spec.axes.toggle_periods) {
    duty_spec.trojan.toggle_period_epochs = period;
    duty.emplace_back(campaign_config(duty_spec, spec.workload.mix));
  }
  // [0, 1]: false-data baseline and attack; [2]: flooding; then, when
  // there are periods, the duty baseline and one attacked run per period.
  const auto runs = runner.map(
      duty.empty() ? 3 : 4 + duty.size(), [&](std::size_t i) {
        if (i == 0) return campaign.simulate({});
        if (i == 1) return campaign.simulate(hts);
        if (i == 2) return flood.simulate(spec.axes.flood_sources);
        if (i == 3) return duty.front().simulate({});
        return duty[i - 4].simulate(hts);
      });
  // One arm's damage (victim throughput) and traffic (injected packets,
  // flits through the manager's router), each measured on its own run.
  const auto arm = [&](const core::RunResult& run) {
    double victim_theta = 0.0;
    for (std::size_t a = 0; a < run.theta.size(); ++a) {
      if (!campaign.apps()[a].is_attacker()) victim_theta += run.theta[a];
    }
    json::Object row;
    row["victim_throughput"] = json::Value(victim_theta);
    row["extra_packets"] =
        json::Value(static_cast<long long>(run.flood_packets));
    row["gm_flits"] = json::Value(static_cast<long long>(run.gm_flits));
    return row;
  };
  json::Object payload;
  payload["clean"] = json::Value(arm(runs[0]));
  json::Object false_data = arm(runs[1]);
  false_data["q"] = json::Value(campaign.reduce(runs[1], runs[0], hts).q);
  payload["false_data"] = json::Value(std::move(false_data));
  payload["flooding"] = json::Value(arm(runs[2]));
  json::Array duty_rows;
  for (std::size_t i = 0; i < duty.size(); ++i) {
    const auto out = duty[i].reduce(runs[4 + i], runs[3], hts);
    json::Object row;
    row["period"] = json::Value(spec.axes.toggle_periods[i]);
    row["infection"] = json::Value(out.infection_measured);
    row["q"] = json::Value(out.q);
    duty_rows.push_back(json::Value(std::move(row)));
  }
  payload["duty_cycle"] = json::Value(std::move(duty_rows));
  return json::Value(std::move(payload));
}

/// The same mix-1 attack under every implemented allocation policy. Each
/// policy's baseline and attacked run go in one fan-out.
json::Value run_budgeter_ablation(const ScenarioSpec& spec,
                                  const core::ParallelSweepRunner& runner) {
  std::vector<core::AttackCampaign> campaigns;
  for (const power::BudgeterKind kind : spec.axes.budgeters) {
    ScenarioSpec arm = spec;
    arm.system.budgeter = kind;
    campaigns.emplace_back(campaign_config(arm, spec.workload.mix));
  }
  // The policy does not move the manager: one cluster serves every arm.
  const auto hts =
      resolve_placements(spec, campaigns.front().gm_node()).front();
  // Per policy: [0] the baseline, [1] the attacked run.
  const auto runs = runner.map(2 * campaigns.size(), [&](std::size_t i) {
    const core::AttackCampaign& campaign = campaigns[i / 2];
    return i % 2 == 0 ? campaign.simulate({}) : campaign.simulate(hts);
  });

  json::Array rows;
  for (std::size_t b = 0; b < campaigns.size(); ++b) {
    const auto out = campaigns[b].reduce(runs[2 * b + 1], runs[2 * b], hts);
    double worst_victim = 1e9;
    double best_attacker = 0.0;
    for (const auto& app : out.apps) {
      if (app.attacker) {
        best_attacker = std::max(best_attacker, app.change);
      } else {
        worst_victim = std::min(worst_victim, app.change);
      }
    }
    json::Object row;
    row["budgeter"] = json::Value(power::to_string(spec.axes.budgeters[b]));
    row["q"] = json::Value(out.q);
    row["infection"] = json::Value(out.infection_measured);
    row["worst_victim"] = json::Value(worst_victim);
    row["best_attacker"] = json::Value(best_attacker);
    rows.push_back(json::Value(std::move(row)));
  }
  json::Object payload;
  payload["rows"] = json::Value(std::move(rows));
  return json::Value(std::move(payload));
}

/// Closed-loop defense tradeoff grid: placements x {static, adaptive}
/// Trojan x {none + axes.responses} response policy, each arm on a
/// campaign built from its own config. All arms share one chip side and
/// so one Trojan-free baseline. Two fan-outs: the response-free arms
/// first, then the baseline plus every response arm whose trigger fires
/// on its response-free twin's detection report; an arm whose trigger
/// never fires is its twin (AttackCampaign::derive_unsanctioned). The
/// static and adaptive arms are tuned to equal mean duty cycle
/// (toggle_period_epochs vs max_on/hold_off), so the duty_comparison
/// block isolates what grant-feedback adaptation buys the attacker.
json::Value run_defense_closed_loop(const ScenarioSpec& spec,
                                    const core::ParallelSweepRunner& runner) {
  struct Arm {
    std::size_t placement = 0;
    bool adaptive = false;
    int response = -1;  // -1 = no response policy, else axes.responses index
  };

  const core::AttackCampaign probe(campaign_config(spec, spec.workload.mix));
  const auto placements = resolve_placements(spec, probe.gm_node());
  const int attacker_cores = core_split(probe).attackers;

  std::vector<Arm> arms;
  std::vector<core::AttackCampaign> campaigns;  // campaigns[i]: arm i's
  for (std::size_t p = 0; p < placements.size(); ++p) {
    for (const bool adaptive : {false, true}) {
      for (int r = -1; r < static_cast<int>(spec.axes.responses.size()); ++r) {
        arms.push_back(Arm{p, adaptive, r});
        core::CampaignConfig cfg = probe.config();
        // Grant-feedback duty cycling replaces the open-loop toggle; the
        // Trojans start live, the agent decides epoch by epoch.
        cfg.trojan.adapt.enabled = adaptive;
        if (adaptive) {
          cfg.trojan.active = true;
          cfg.toggle_period_epochs = 0;
        }
        if (r < 0) {
          cfg.response.reset();
        } else {
          cfg.response->kind = spec.axes.responses[static_cast<std::size_t>(r)];
        }
        campaigns.emplace_back(std::move(cfg));
      }
    }
  }
  // runs[0]: the shared baseline; runs[1 + i]: arm i.
  std::vector<core::RunResult> runs(1 + arms.size());
  const auto simulate = [&](const std::vector<std::size_t>& slots) {
    auto done = runner.map(slots.size(), [&](std::size_t k) {
      const std::size_t s = slots[k];
      return s == 0 ? probe.simulate({})
                    : campaigns[s - 1].simulate(
                          placements[arms[s - 1].placement]);
    });
    for (std::size_t k = 0; k < slots.size(); ++k) {
      runs[slots[k]] = std::move(done[k]);
    }
  };
  std::vector<std::size_t> slots;
  for (std::size_t i = 0; i < arms.size(); ++i) {
    if (arms[i].response < 0) slots.push_back(1 + i);
  }
  simulate(slots);
  slots = {0};
  for (std::size_t i = 0; i < arms.size(); ++i) {
    if (arms[i].response < 0) continue;
    // Each response arm follows its response-free twin in `arms`, so
    // the twin's run sits `response` slots before the arm's own.
    const std::size_t twin = i - static_cast<std::size_t>(arms[i].response);
    if (auto derived = campaigns[i].derive_unsanctioned(runs[twin])) {
      runs[1 + i] = std::move(*derived);
    } else {
      slots.push_back(1 + i);
    }
  }
  simulate(slots);
  std::vector<core::CampaignOutcome> outs(arms.size());
  for (std::size_t i = 0; i < arms.size(); ++i) {
    outs[i] = campaigns[i].reduce(runs[1 + i], runs[0],
                                  placements[arms[i].placement]);
  }

  const auto detection_rate = [&](const core::CampaignOutcome& out) {
    if (!out.detection.has_value() || attacker_cores == 0) return 0.0;
    // Capped at 1: a migration re-flags attackers at their new positions,
    // so the cumulative distinct-node count can exceed the physical cores.
    return std::min(1.0,
                    static_cast<double>(out.detection->flagged_high.size()) /
                        static_cast<double>(attacker_cores));
  };

  json::Array rows;
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const Arm& arm = arms[i];
    const core::CampaignOutcome& out = outs[i];
    json::Object row;
    row["placement"] =
        json::Value(to_string(spec.axes.placements[arm.placement].at));
    row["trojan"] = json::Value(arm.adaptive ? "adaptive" : "static");
    row["response"] = json::Value(
        arm.response < 0
            ? "none"
            : power::to_string(
                  spec.axes.responses[static_cast<std::size_t>(arm.response)]));
    row["q"] = json::Value(out.q);
    row["infection"] = json::Value(out.infection_measured);
    const power::DetectorReport rep =
        out.detection.value_or(power::DetectorReport{});
    row["attackers_flagged"] =
        json::Value(static_cast<long long>(rep.flagged_high.size()));
    row["victims_flagged"] =
        json::Value(static_cast<long long>(rep.flagged_low.size()));
    row["detection_rate"] = json::Value(detection_rate(out));
    row["first_flag_epoch"] = json::Value(rep.first_flag_epoch);
    if (out.adaptation.has_value()) {
      row["duty"] = json::Value(out.adaptation->duty());
      row["backoffs"] = json::Value(out.adaptation->backoffs);
    }
    if (out.response.has_value()) {
      const core::ResponseOutcome& ro = *out.response;
      const power::ResponseStats& st = ro.stats;
      row["sanctioned_cores"] =
          json::Value(static_cast<long long>(st.sanctioned_cores.size()));
      row["collateral"] = json::Value(ro.collateral);
      row["sanction_core_epochs"] =
          json::Value(static_cast<long long>(st.sanction_core_epochs));
      row["denied_requests"] =
          json::Value(static_cast<long long>(st.denied_requests));
      row["clamped_requests"] =
          json::Value(static_cast<long long>(st.clamped_requests));
      row["first_sanction_epoch"] = json::Value(st.first_sanction_epoch);
      row["epochs_to_recovery"] = json::Value(ro.epochs_to_recovery);
      row["victim_grant_recovery"] = json::Value(ro.victim_grant_recovery);
      row["migrations"] = json::Value(ro.migrations);
    }
    rows.push_back(json::Value(std::move(row)));
  }

  // Evasion headline: the response-free arms of the first placement,
  // static (toggle, duty 1/2) vs adaptive (max_on/hold_off, equal duty).
  json::Object comparison;
  for (std::size_t i = 0; i < arms.size(); ++i) {
    if (arms[i].placement != 0 || arms[i].response >= 0) continue;
    const char* side = arms[i].adaptive ? "adaptive" : "static";
    json::Object half;
    half["detection_rate"] = json::Value(detection_rate(outs[i]));
    half["q"] = json::Value(outs[i].q);
    half["duty"] = json::Value(
        outs[i].adaptation.has_value() ? outs[i].adaptation->duty() : 0.5);
    comparison[side] = json::Value(std::move(half));
  }

  json::Object payload;
  payload["attacker_cores"] = json::Value(attacker_cores);
  payload["arms"] = json::Value(std::move(rows));
  payload["duty_comparison"] = json::Value(std::move(comparison));
  return json::Value(std::move(payload));
}

/// Table I: the implemented configuration plus a zero-load latency check
/// of the NoC timing parameters on the wire.
json::Value run_config_report(const ScenarioSpec& spec) {
  const system::SystemConfig cfg = spec.system.to_system_config();
  json::Object params;
  params["nodes"] = json::Value(cfg.node_count());
  params["width"] = json::Value(cfg.width);
  params["height"] = json::Value(cfg.height);
  params["l1_sets"] = json::Value(static_cast<long long>(cfg.l1.sets));
  params["l1_ways"] = json::Value(cfg.l1.ways);
  params["l1_mshrs"] = json::Value(cfg.l1.mshrs);
  params["l2_sets"] = json::Value(static_cast<long long>(cfg.l2.sets));
  params["l2_ways"] = json::Value(cfg.l2.ways);
  params["mem_latency"] =
      json::Value(static_cast<long long>(cfg.l2.mem_latency));
  params["data_packet_flits"] = json::Value(cfg.noc.data_packet_flits);
  params["meta_packet_flits"] = json::Value(cfg.noc.meta_packet_flits);
  params["router_latency"] = json::Value(cfg.noc.router_latency);
  params["link_latency"] = json::Value(cfg.noc.link_latency);
  params["vcs"] = json::Value(cfg.noc.vcs);
  params["vc_depth"] = json::Value(cfg.noc.vc_depth);

  // Verify Table I's timing on the wire: one-hop zero-load latency of a
  // 1-flit packet must equal (hops+1)*(router+link) + link.
  sim::Engine engine;
  MeshGeometry geom(2, 1);
  noc::MeshNetwork net(engine, geom, cfg.noc);
  Cycle measured = 0;
  net.set_handler(1, [&](const noc::Packet& p) {
    measured = p.delivered - p.birth;
  });
  net.send(net.make_packet(0, 1, noc::PacketType::kMemReadReq));
  engine.run_cycles(30);
  const Cycle expected = static_cast<Cycle>(
      2 * (cfg.noc.router_latency + cfg.noc.link_latency) +
      cfg.noc.link_latency);

  json::Object latency;
  latency["measured"] = json::Value(static_cast<long long>(measured));
  latency["analytic"] = json::Value(static_cast<long long>(expected));
  latency["match"] = json::Value(measured == expected);

  json::Object payload;
  payload["parameters"] = json::Value(std::move(params));
  payload["zero_load_latency"] = json::Value(std::move(latency));
  return json::Value(std::move(payload));
}

/// Tables II-III: the benchmark roster and mixes, plus each benchmark's
/// measured power sensitivity Phi (Def. 5) on a quiet chip.
json::Value run_benchmark_report(const ScenarioSpec& spec,
                                 const core::ParallelSweepRunner& runner) {
  json::Array roster;
  for (const auto& b : workload::benchmark_table()) {
    json::Object row;
    row["name"] = json::Value(b.name);
    row["suite"] = json::Value(b.suite);
    row["cpi_base"] = json::Value(b.cpi_base);
    row["apki"] = json::Value(b.apki);
    row["working_set_lines"] =
        json::Value(static_cast<long long>(b.working_set_lines));
    row["shared_fraction"] = json::Value(b.shared_fraction);
    row["write_fraction"] = json::Value(b.write_fraction);
    roster.push_back(json::Value(std::move(row)));
  }

  json::Array mixes;
  for (const auto& mix : workload::standard_mixes()) {
    json::Object row;
    row["name"] = json::Value(mix.name);
    json::Array attackers;
    for (const auto& a : mix.attackers) attackers.push_back(json::Value(a));
    json::Array victims;
    for (const auto& v : mix.victims) victims.push_back(json::Value(v));
    row["attackers"] = json::Value(std::move(attackers));
    row["victims"] = json::Value(std::move(victims));
    mixes.push_back(json::Value(std::move(row)));
  }

  // Measured Phi: one benchmark at a time on a quiet chip, uniform
  // placement, no warmup, `epochs.measure` epochs; one fan-out.
  const auto& profiles = workload::benchmark_table();
  core::CampaignConfig cfg;
  cfg.system = spec.system.to_system_config();
  cfg.threads_per_app = cfg.system.node_count();
  cfg.warmup_epochs = 0;
  cfg.measure_epochs = spec.epochs.measure;
  std::vector<core::AttackCampaign> solos;
  for (const auto& profile : profiles) {
    cfg.mix = workload::Mix{profile.name, {}, {profile.name}};
    solos.emplace_back(cfg);
  }
  const auto runs = runner.map(solos.size(), [&](std::size_t i) {
    return solos[i].simulate({});
  });
  json::Array phi;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    json::Object row;
    row["name"] = json::Value(profiles[i].name);
    row["phi"] = json::Value(runs[i].phi[0]);
    phi.push_back(json::Value(std::move(row)));
  }

  json::Object payload;
  payload["benchmarks"] = json::Value(std::move(roster));
  payload["mixes"] = json::Value(std::move(mixes));
  payload["phi"] = json::Value(std::move(phi));
  return json::Value(std::move(payload));
}

/// Sec. III-D: every derived stealth number from the synthesis constants.
json::Value run_area_power_report(const ScenarioSpec& spec) {
  const int nodes = spec.system.width * spec.system.height;
  const core::HtAreaPowerModel m;
  json::Object model;
  model["ht_area_um2"] = json::Value(m.ht_area_um2);
  model["ht_power_uw"] = json::Value(m.ht_power_uw);
  model["router_area_um2"] = json::Value(m.router.area_um2);
  model["router_power_uw"] = json::Value(m.router.power_uw);
  model["area_fraction_of_router"] = json::Value(m.area_fraction_of_router());
  model["power_fraction_of_router"] =
      json::Value(m.power_fraction_of_router());

  json::Array scaling;
  for (const int hts : spec.axes.ht_counts) {
    json::Object row;
    row["hts"] = json::Value(hts);
    row["total_area_um2"] = json::Value(m.total_area_um2(hts));
    row["total_power_uw"] = json::Value(m.total_power_uw(hts));
    row["area_fraction_of_chip"] =
        json::Value(m.area_fraction_of_chip(hts, nodes));
    row["power_fraction_of_chip"] =
        json::Value(m.power_fraction_of_chip(hts, nodes));
    scaling.push_back(json::Value(std::move(row)));
  }

  json::Object payload;
  payload["chip_nodes"] = json::Value(nodes);
  payload["model"] = json::Value(std::move(model));
  payload["scaling"] = json::Value(std::move(scaling));
  return json::Value(std::move(payload));
}

}  // namespace

ScenarioSpec resolve(const ScenarioSpec& spec, const RunOptions& opts) {
  ScenarioSpec resolved = opts.quick ? spec.with_quick() : spec;
  if (opts.seed.has_value()) {
    resolved.seed = *opts.seed;
    resolved.system.seed = *opts.seed;
  }
  resolved.validate();
  return resolved;
}

json::Object result_envelope(const ScenarioSpec& resolved, bool quick,
                             int threads) {
  json::Object envelope;
  envelope["scenario"] = json::Value(resolved.name);
  envelope["kind"] = json::Value(to_string(resolved.kind));
  envelope["quick"] = json::Value(quick);
  envelope["seed"] = json::Value(static_cast<long long>(resolved.seed));
  envelope["threads"] =
      json::Value(core::ParallelSweepRunner(threads).threads());
  return envelope;
}

json::Value run_scenario(const ScenarioSpec& spec, const RunOptions& opts) {
  const ScenarioSpec s = resolve(spec, opts);
  const core::ParallelSweepRunner runner(opts.threads);
  json::Object envelope = result_envelope(s, opts.quick, runner.threads());

  json::Object timing;
  const double t0 = now_seconds();
  json::Value payload;
  switch (s.kind) {
    case ScenarioKind::kInfectionVsHtCount:
      payload = run_infection_vs_ht_count(s, runner);
      break;
    case ScenarioKind::kInfectionVsDistribution:
      payload = run_infection_vs_distribution(s, runner);
      break;
    case ScenarioKind::kAttackEffect:
      payload = run_attack_sweep(s, runner);
      break;
    case ScenarioKind::kPlacementStudy:
      payload = run_placement_study(s, runner);
      break;
    case ScenarioKind::kDefenseSweep:
      payload = run_defense_sweep(s, runner, timing);
      break;
    case ScenarioKind::kDefenseEvaluation:
      payload = run_defense_evaluation(s, runner);
      break;
    case ScenarioKind::kAttackComparison:
      payload = run_attack_comparison(s, runner);
      break;
    case ScenarioKind::kBudgeterAblation:
      payload = run_budgeter_ablation(s, runner);
      break;
    case ScenarioKind::kConfigReport:
      payload = run_config_report(s);
      break;
    case ScenarioKind::kBenchmarkReport:
      payload = run_benchmark_report(s, runner);
      break;
    case ScenarioKind::kAreaPowerReport:
      payload = run_area_power_report(s);
      break;
    case ScenarioKind::kDefenseClosedLoop:
      payload = run_defense_closed_loop(s, runner);
      break;
  }
  timing["seconds"] = json::Value(now_seconds() - t0);

  for (auto& [key, value] : payload.as_object()) {
    envelope[key] = std::move(value);
  }
  envelope["timing"] = json::Value(std::move(timing));
  return json::Value(std::move(envelope));
}

power::RequestTrace record_scenario_trace(const ScenarioSpec& spec,
                                          const RunOptions& opts) {
  const ScenarioSpec s = resolve(spec, opts);
  const std::string mix_name =
      !s.workload.mixes.empty() ? s.workload.mixes.front() : s.workload.mix;
  core::CampaignConfig cfg = campaign_config(s, mix_name);
  cfg.detector.reset();  // recording is detector-free by construction
  cfg.response.reset();  // ... and responses perturb what they'd record
  core::AttackCampaign campaign(cfg);
  const MeshGeometry geom(s.system.width, s.system.height);
  const ClusterSpec cluster =
      s.axes.placements.empty() ? ClusterSpec{} : s.axes.placements.front();
  const auto placement = resolve_cluster(cluster, geom, campaign.gm_node());
  power::RequestTrace trace;
  (void)campaign.simulate(placement, &trace);
  return trace;
}

json::Value replay_scenario_detectors(const ScenarioSpec& spec,
                                      const power::RequestTrace& trace,
                                      const RunOptions& opts) {
  const ScenarioSpec s = resolve(spec, opts);
  // A trace is only meaningful against the chip it was recorded on: a
  // detector replayed into the wrong geometry would file confident
  // nonsense. Refuse loudly instead.
  const int spec_nodes = s.system.width * s.system.height;
  if (trace.node_count != spec_nodes) {
    throw std::runtime_error(
        "trace/scenario mismatch: trace was recorded on " +
        std::to_string(trace.node_count) + " nodes but scenario \"" + s.name +
        "\" builds " + std::to_string(spec_nodes));
  }
  if (trace.epoch_cycles != s.system.epoch_cycles) {
    throw std::runtime_error(
        "trace/scenario mismatch: trace epoch_cycles " +
        std::to_string(trace.epoch_cycles) + " vs scenario \"" + s.name +
        "\" epoch_cycles " + std::to_string(s.system.epoch_cycles));
  }
  std::vector<power::DetectorConfig> detectors;
  if (s.detector.has_value()) detectors.push_back(*s.detector);
  const std::vector<power::DetectorConfig> grid = roc_detector_grid(s);
  detectors.insert(detectors.end(), grid.begin(), grid.end());
  if (detectors.empty()) detectors.push_back(power::DetectorConfig{});

  json::Array reports;
  for (const power::DetectorConfig& d : detectors) {
    const power::DetectorReport rep = power::replay_detector(trace, d);
    json::Object row;
    row["kind"] = json::Value(to_string(d.kind));
    row["low"] = json::Value(d.low_ratio);
    row["high"] = json::Value(d.high_ratio);
    row["unique_flagged"] =
        json::Value(static_cast<long long>(rep.unique_flagged()));
    json::Array low_nodes;
    for (const NodeId n : rep.flagged_low) {
      low_nodes.push_back(json::Value(static_cast<long long>(n)));
    }
    json::Array high_nodes;
    for (const NodeId n : rep.flagged_high) {
      high_nodes.push_back(json::Value(static_cast<long long>(n)));
    }
    row["flagged_low"] = json::Value(std::move(low_nodes));
    row["flagged_high"] = json::Value(std::move(high_nodes));
    row["first_flag_epoch"] = json::Value(rep.first_flag_epoch);
    row["epochs_observed"] =
        json::Value(static_cast<long long>(rep.epochs_observed));
    reports.push_back(json::Value(std::move(row)));
  }
  json::Object payload;
  payload["scenario"] = json::Value(s.name);
  payload["epochs"] = json::Value(static_cast<long long>(trace.size()));
  payload["node_count"] = json::Value(trace.node_count);
  payload["reports"] = json::Value(std::move(reports));
  return json::Value(std::move(payload));
}

}  // namespace htpb::scenario
