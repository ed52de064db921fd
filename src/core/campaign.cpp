#include "core/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "common/validate.hpp"
#include "core/flooding.hpp"
#include "core/infection.hpp"
#include "sim/event_desc.hpp"
#include "system/manycore_system.hpp"
#include "workload/benchmark_profile.hpp"

namespace htpb::core {

namespace {

/// See AttackCampaign::systems_simulated(). One count per leg: the
/// trace-replay tests assert exact deltas of it.
std::atomic<std::uint64_t> g_systems_simulated{0};

/// See AttackCampaign::warmup_epochs_simulated().
std::atomic<std::uint64_t> g_warmup_epochs_simulated{0};

/// The attacker agent's power-on broadcast: a unicast CONFIG_CMD to every
/// node covers every router under XY routing (the union of the paths from
/// one source to all destinations is the full mesh).
void broadcast_config(system::ManyCoreSystem& sys, NodeId agent_node,
                      const TrojanConfig& config) {
  for (NodeId n = 0; n < static_cast<NodeId>(sys.config().node_count());
       ++n) {
    auto pkt =
        sys.network().make_packet(agent_node, n, noc::PacketType::kConfigCmd);
    encode_config(config, *pkt);
    sys.network().send(std::move(pkt));
  }
}

/// Uniform light workload for infection-only experiments: every core runs
/// one thread of the same moderately communicating benchmark.
workload::Mix uniform_mix() {
  workload::Mix mix;
  mix.name = "uniform";
  mix.victims = {"fluidanimate"};
  return mix;
}

/// Does `report` hold a verdict `response`'s trigger listens to? (The
/// migrate policy's "first confirmed flag"; with no verdict of that kind
/// no policy ever sanctions.)
bool triggered(const std::optional<power::ResponseConfig>& response,
               const power::DetectorReport& report) {
  bool fired = false;
  if (response.has_value()) {
    power::for_each_triggered(response->trigger, report,
                              [&fired](NodeId) { fired = true; });
  }
  return fired;
}

}  // namespace

/// One leg's attack wiring, owned by the leg frame: the implanted Trojans
/// and the duty-cycle controller state the engine's kCampaignToggle /
/// kCampaignAdapt handlers mutate. The handlers close over this struct by
/// reference, so it must outlive the leg's system.
struct AttackFrame {
  std::vector<std::unique_ptr<HardwareTrojan>> trojans;
  std::vector<std::unique_ptr<FloodingAttacker>> flooders;
  /// The resolved broadcast configuration (immutable after install).
  TrojanConfig tc;
  NodeId agent_node = 0;
  Cycle toggle_period = 0;  ///< >0 iff the periodic toggle is engaged

  // -- duty-cycle controller state ----------------------------------------
  TrojanConfig toggle_state;
  struct Adapt {
    bool active = true;
    int on_streak = 0;
    int hold = 0;
    double reference = 0.0;
    bool reference_valid = false;
  };
  Adapt adapt_state;
  /// Adaptation decisions taken by THIS frame (warmup included); the leg
  /// adds it into the run's running totals when it finishes.
  AdaptationOutcome adapt_totals;
  bool adapt_engaged = false;
};

void FloodingConfig::validate() const {
  require(rate > 0.0 && rate <= 1.0,
          "rate must be in (0, 1] (one packet start per cycle at most)");
}

void CampaignConfig::validate() const {
  check_at("system.", [&] { system.validate(); });
  check_at("trojan.", [&] { trojan.validate(); });
  if (detector.has_value()) {
    check_at("detector.", [&] { detector->validate(); });
  }
  if (response.has_value()) {
    check_at("response.", [&] { response->validate(); });
  }
  if (flooding.has_value()) {
    check_at("flooding.", [&] { flooding->validate(); });
  }
  require(warmup_epochs >= 0, "warmup_epochs must be >= 0");
  require(measure_epochs >= 1, "measure_epochs must be >= 1");
  require(toggle_period_epochs >= 0, "toggle_period_epochs must be >= 0");
  require(threads_per_app >= 0, "threads_per_app must be >= 0 (0 = auto)");
  require(!response.has_value() || detector.has_value(),
          "response requires a detector to act on");
  require(!trojan.adapt.enabled || toggle_period_epochs <= 0,
          "trojan.adapt.enabled and a toggle period are rival duty-cycle "
          "controllers; enable one");
  require(!flooding.has_value() ||
              (!detector.has_value() && !response.has_value()),
          "flooding implants no false-data Trojan for a detector or "
          "response to act on");
}

AttackCampaign::AttackCampaign(CampaignConfig cfg) : cfg_(std::move(cfg)) {
  check_at("AttackCampaign: ", [&] { cfg_.validate(); });
  const workload::Mix mix = cfg_.mix.value_or(uniform_mix());
  const int nodes = cfg_.system.node_count();
  int threads = cfg_.threads_per_app;
  if (threads <= 0) {
    threads = nodes / mix.app_count();
    if (threads == 0) {
      throw std::invalid_argument("AttackCampaign: more apps than cores");
    }
  }
  apps_ = workload::instantiate_mix(mix, threads);
  workload::map_threads_round_robin(apps_, nodes);
  // The manager node the system will resolve, so that the Trojan
  // configuration and infection analytics agree with the substrate.
  gm_node_ = cfg_.system.resolved_gm_node();
}

ChipSide AttackCampaign::chip_side() const {
  return ChipSide{cfg_.system, cfg_.mix, cfg_.threads_per_app,
                  cfg_.warmup_epochs, cfg_.measure_epochs};
}

RunResult AttackCampaign::simulate(std::span<const NodeId> ht_nodes,
                                   power::RequestTrace* trace) const {
  // The detector lives exactly as long as this run: constructed fresh
  // from the config (never shared across runs or placements) and reduced
  // to a report before the run ends. For a migrating run it spans BOTH
  // legs -- migration must not wipe the defender's accumulated evidence.
  std::unique_ptr<power::RequestAnomalyDetector> detector;
  if (cfg_.detector.has_value() && !ht_nodes.empty()) {
    detector = power::make_detector(*cfg_.detector);
  }
  // Quarantine and throttle sanction through an engine inside the
  // manager; migrate needs none -- re-placement is this layer's move.
  const bool responding = cfg_.response.has_value() && detector != nullptr;
  const bool migrate_mode =
      responding && cfg_.response->kind == power::ResponseKind::kMigrate;
  std::unique_ptr<power::ResponseEngine> response;
  if (responding && !migrate_mode) {
    response = std::make_unique<power::ResponseEngine>(*cfg_.response);
    response->attach_detector(detector.get());
  }

  if (trace != nullptr) {
    trace->epochs.clear();
    trace->node_count = cfg_.system.node_count();
    trace->epoch_cycles = cfg_.system.epoch_cycles;
  }

  RunResult result;
  result.chip = chip_side();
  std::vector<double> instr(apps_.size(), 0.0);
  double infection_epoch_sum = 0.0;
  int measured_total = 0;
  AdaptationOutcome adapt_totals;
  bool adapt_engaged = false;

  // One simulated chip lifetime ("leg"): a non-migrating run is a single
  // full leg; a migrating run is a pre-migration leg cut short at the
  // triggering epoch boundary plus a remapped leg for the remaining
  // epochs. Returns the number of epochs actually measured.
  const auto run_leg = [&](const std::vector<workload::Application>& apps,
                           int measure_epochs, bool stop_on_flag) -> int {
    g_systems_simulated.fetch_add(1, std::memory_order_relaxed);
    system::ManyCoreSystem sys(cfg_.system, apps);
    if (detector != nullptr) sys.gm().attach_detector(detector.get());
    if (response != nullptr) sys.gm().attach_response(response.get());

    // Implant the Trojans, broadcast the attacker's configuration and arm
    // the duty-cycle controllers. The frame owns every piece of attack
    // state for this leg; the engine handlers close over it by reference.
    AttackFrame frame;
    install_attack(sys, apps, ht_nodes, frame);

    if (trace != nullptr) sys.gm().attach_recorder(trace);
    if (cfg_.warmup_epochs > 0) {
      g_warmup_epochs_simulated.fetch_add(
          static_cast<std::uint64_t>(cfg_.warmup_epochs),
          std::memory_order_relaxed);
      sys.run_epochs(cfg_.warmup_epochs);
    }
    sys.reset_measurement();
    int measured = 0;
    if (stop_on_flag && detector != nullptr) {
      // Epoch-by-epoch is bit-identical to one run_epochs call (the
      // engine just advances cycles); it only adds the boundary checks.
      for (int e = 0; e < measure_epochs; ++e) {
        sys.run_epochs(1);
        ++measured;
        if (triggered(cfg_.response, detector->cumulative())) break;
      }
    } else {
      sys.run_epochs(measure_epochs);
      measured = measure_epochs;
    }

    const double elapsed =
        static_cast<double>(measured) *
        static_cast<double>(cfg_.system.epoch_cycles);
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      instr[i] += sys.app_throughput(apps_[i].id) * elapsed;
    }
    if (result.phi.empty()) {
      result.phi.resize(apps_.size());
      for (std::size_t i = 0; i < apps_.size(); ++i) {
        result.phi[i] = sys.app_sensitivity(apps_[i].id);
      }
    }
    infection_epoch_sum +=
        sys.measured_infection_rate() * static_cast<double>(measured);
    measured_total += measured;
    result.gm_flits +=
        sys.network().router(sys.gm_node()).stats().flits_forwarded;

    const auto& hist = sys.gm().history();
    const std::size_t first =
        hist.size() >= static_cast<std::size_t>(measured)
            ? hist.size() - static_cast<std::size_t>(measured)
            : 0;
    for (std::size_t i = first; i < hist.size(); ++i) {
      result.victim_grants.push_back(
          static_cast<double>(hist[i].victim_granted_mw));
    }

    for (const auto& flooder : frame.flooders) {
      result.flood_packets += flooder->packets_injected();
    }
    for (const auto& ht : frame.trojans) {
      const TrojanStats& s = ht->stats();
      result.trojan_totals.config_packets_seen += s.config_packets_seen;
      result.trojan_totals.power_requests_seen += s.power_requests_seen;
      result.trojan_totals.victim_requests_modified +=
          s.victim_requests_modified;
      result.trojan_totals.attacker_requests_boosted +=
          s.attacker_requests_boosted;
    }
    if (frame.adapt_engaged) {
      adapt_engaged = true;
      adapt_totals.epochs_on += frame.adapt_totals.epochs_on;
      adapt_totals.epochs_off += frame.adapt_totals.epochs_off;
      adapt_totals.backoffs += frame.adapt_totals.backoffs;
    }
    return measured;
  };

  const int measured1 = run_leg(apps_, cfg_.measure_epochs, migrate_mode);

  if (migrate_mode && triggered(cfg_.response, detector->cumulative())) {
    // Migration bookkeeping: the cores whose confirmed flags pulled the
    // trigger, stamped with the observed-epoch index of the boundary.
    power::ResponseStats stats;
    const int epoch = cfg_.warmup_epochs + measured1 - 1;
    power::for_each_triggered(
        cfg_.response->trigger, detector->cumulative(),
        [&stats, epoch](NodeId n) { stats.record(n, epoch); });
    result.response_stats = stats;

    if (measured1 < cfg_.measure_epochs) {
      // Re-place every application through the mesh's center mirror
      // (an involution, so the remap is collision-free) and resume for
      // the remaining epochs. Modeled as rebuild-and-resume at the
      // epoch boundary: caches and histories re-warm on the new
      // placement, the detector carries its evidence across.
      const MeshGeometry geom(cfg_.system.width, cfg_.system.height);
      std::vector<workload::Application> migrated = apps_;
      for (auto& app : migrated) {
        for (NodeId& core : app.cores) {
          const Coord c = geom.coord_of(core);
          core = geom.id_of(Coord{geom.width() - 1 - c.x,
                                  geom.height() - 1 - c.y});
        }
      }
      result.migrations = 1;
      run_leg(migrated, cfg_.measure_epochs - measured1, false);
    }
  } else if (responding) {
    result.response_stats =
        response != nullptr ? response->stats() : power::ResponseStats{};
  }

  const double total_cycles =
      static_cast<double>(measured_total) *
      static_cast<double>(cfg_.system.epoch_cycles);
  result.theta.resize(apps_.size());
  for (std::size_t i = 0; i < apps_.size(); ++i) {
    result.theta[i] = total_cycles > 0.0 ? instr[i] / total_cycles : 0.0;
  }
  result.infection = measured_total > 0
                         ? infection_epoch_sum /
                               static_cast<double>(measured_total)
                         : 0.0;
  if (!result.victim_grants.empty()) {
    double sum = 0.0;
    for (const double v : result.victim_grants) sum += v;
    result.mean_victim_grant_mw =
        sum / static_cast<double>(result.victim_grants.size());
  }
  if (adapt_engaged) result.adaptation = adapt_totals;
  if (detector != nullptr) result.detection = detector->cumulative();
  return result;
}

std::optional<RunResult> AttackCampaign::derive_unsanctioned(
    const RunResult& response_free) const {
  if (response_free.chip != chip_side()) {
    throw std::invalid_argument(
        "AttackCampaign::derive_unsanctioned: the twin was simulated on a "
        "different chip side (system, mix, threads_per_app or "
        "warmup/measure epochs)");
  }
  // The detector's cumulative lists hold every verdict it ever returned
  // as newly confirmed (nothing re-arms it before a first sanction), so
  // a trigger that never fires on the twin never fired inside this arm.
  if (response_free.detection.has_value() &&
      triggered(cfg_.response, *response_free.detection)) {
    return std::nullopt;
  }
  RunResult result = response_free;
  // As simulate(): an empty placement builds no detector, hence no engine.
  if (cfg_.response.has_value() && result.detection.has_value()) {
    result.response_stats = power::ResponseStats{};
  }
  return result;
}

std::uint64_t AttackCampaign::systems_simulated() noexcept {
  return g_systems_simulated.load(std::memory_order_relaxed);
}

std::uint64_t AttackCampaign::warmup_epochs_simulated() noexcept {
  return g_warmup_epochs_simulated.load(std::memory_order_relaxed);
}

void AttackCampaign::install_attack(
    system::ManyCoreSystem& sys,
    const std::vector<workload::Application>& apps,
    std::span<const NodeId> ht_nodes, AttackFrame& frame) const {
  if (cfg_.flooding.has_value()) {
    for (const NodeId node : ht_nodes) {
      frame.flooders.push_back(std::make_unique<FloodingAttacker>(
          &sys.network(), node, gm_node_, cfg_.flooding->rate,
          cfg_.flooding->seed + node));
      sys.engine().add_tickable(frame.flooders.back().get());
    }
    return;
  }
  // Implant the Trojans (fab-time insertion: present before power-on).
  frame.trojans.reserve(ht_nodes.size());
  for (const NodeId node : ht_nodes) {
    auto ht = std::make_unique<HardwareTrojan>(node);
    sys.network().add_inspector(node, ht.get());
    frame.trojans.push_back(std::move(ht));
  }
  if (ht_nodes.empty()) return;

  TrojanConfig tc = cfg_.trojan;
  tc.global_manager = gm_node_;
  tc.attacker_agents.clear();
  for (const auto& app : apps) {
    if (!app.is_attacker()) continue;
    tc.attacker_agents.insert(tc.attacker_agents.end(), app.cores.begin(),
                              app.cores.end());
  }
  // The attacker application's first core broadcasts (node 0 when the
  // mix has no attacker). Derived from this leg's mapping, so a migrated
  // agent broadcasts from its new core.
  const NodeId agent_node =
      tc.attacker_agents.empty() ? NodeId{0} : tc.attacker_agents.front();
  if (tc.attacker_agents.empty()) tc.attacker_agents.push_back(agent_node);
  frame.tc = tc;
  frame.agent_node = agent_node;

  broadcast_config(sys, agent_node, tc);

  if (cfg_.toggle_period_epochs > 0) {
    // Periodic ON/OFF re-broadcasts (Sec. III-B duty-cycling), driven by
    // serializable kCampaignToggle events: the handler -- wiring, closed
    // over the frame -- flips the frame-owned state and re-schedules the
    // next descriptor, so a system snapshot cut between toggles captures
    // the pending event, never a closure.
    frame.toggle_period = static_cast<Cycle>(cfg_.toggle_period_epochs) *
                          cfg_.system.epoch_cycles;
    frame.toggle_state = tc;
    sys.engine().set_handler(
        sim::EventKind::kCampaignToggle, -1,
        [&sys, &frame](const sim::EventDesc&) {
          frame.toggle_state.active = !frame.toggle_state.active;
          broadcast_config(sys, frame.agent_node, frame.toggle_state);
          sys.engine().schedule_desc_in(
              frame.toggle_period,
              sim::EventDesc{sim::EventKind::kCampaignToggle, -1, 0, 0});
        });
    sys.engine().schedule_desc_in(
        frame.toggle_period,
        sim::EventDesc{sim::EventKind::kCampaignToggle, -1, 0, 0});
  }

  if (tc.adapt.enabled) {
    // The closed loop's attacker half (TrojanAdaptation): one decision
    // per epoch, taken one cycle before the next epoch opens -- every
    // grant of the closing epoch has landed and the re-broadcast
    // deterministically precedes the next requests. Same serializable
    // descriptor pattern as the toggle.
    frame.adapt_engaged = true;
    frame.adapt_state.active = tc.active;
    const Cycle period = cfg_.system.epoch_cycles;
    sys.engine().set_handler(
        sim::EventKind::kCampaignAdapt, -1,
        [&sys, &frame, period](const sim::EventDesc&) {
          const TrojanConfig& tc = frame.tc;
          AttackFrame::Adapt& st = frame.adapt_state;
          AdaptationOutcome& totals = frame.adapt_totals;
          double sum = 0.0;
          for (const NodeId n : tc.attacker_agents) {
            sum += static_cast<double>(sys.last_grant_mw(n));
          }
          const double mean_grant =
              tc.attacker_agents.empty()
                  ? 0.0
                  : sum / static_cast<double>(tc.attacker_agents.size());
          if (st.active) {
            ++totals.epochs_on;
            ++st.on_streak;
            // A grant well below the hiding-time reference means a
            // sanction landed; back off longer than a voluntary rest.
            const bool sanctioned =
                st.reference_valid &&
                mean_grant < tc.adapt.backoff_ratio * st.reference;
            if (sanctioned || st.on_streak >= tc.adapt.max_on_epochs) {
              st.active = false;
              st.on_streak = 0;
              st.hold = sanctioned ? 2 * tc.adapt.hold_off_epochs
                                   : tc.adapt.hold_off_epochs;
              if (sanctioned) ++totals.backoffs;
              TrojanConfig off = tc;
              off.active = false;
              broadcast_config(sys, frame.agent_node, off);
            }
          } else {
            ++totals.epochs_off;
            st.reference = st.reference_valid
                               ? (1.0 - tc.adapt.alpha) * st.reference +
                                     tc.adapt.alpha * mean_grant
                               : mean_grant;
            st.reference_valid = true;
            if (--st.hold <= 0) {
              st.active = true;
              TrojanConfig on = tc;
              on.active = true;
              broadcast_config(sys, frame.agent_node, on);
            }
          }
          sys.engine().schedule_desc_in(
              period, sim::EventDesc{sim::EventKind::kCampaignAdapt, -1, 0, 0});
        });
    sys.engine().schedule_desc_in(
        cfg_.system.first_epoch_cycle + cfg_.system.epoch_cycles - 1,
        sim::EventDesc{sim::EventKind::kCampaignAdapt, -1, 0, 0});
  }
}

CampaignOutcome AttackCampaign::reduce(const RunResult& attacked,
                                       const RunResult& baseline,
                                       std::span<const NodeId> ht_nodes) const {
  if (baseline.chip != chip_side()) {
    throw std::invalid_argument(
        "AttackCampaign::reduce: the baseline was simulated on a different "
        "chip side (system, mix, threads_per_app or warmup/measure epochs)");
  }
  CampaignOutcome out;
  out.infection_measured = attacked.infection;
  out.trojan_totals = attacked.trojan_totals;
  out.detection = attacked.detection;

  const MeshGeometry geom(cfg_.system.width, cfg_.system.height);
  if (!ht_nodes.empty()) {
    out.geometry = placement_geometry(geom, gm_node_, ht_nodes);
    // The infection rate is defined over victim requests (boosting the
    // accomplice's own packets is not an infection), so predict coverage
    // of the victim cores only.
    std::vector<NodeId> sources;
    for (const auto& app : apps_) {
      if (app.is_attacker()) continue;
      for (const NodeId c : app.cores) {
        if (c != gm_node_) sources.push_back(c);
      }
    }
    out.infection_predicted =
        InfectionAnalyzer(geom, gm_node_).predicted_rate(ht_nodes, sources);
  }

  std::vector<double> change_attackers;
  std::vector<double> change_victims;
  out.apps.resize(apps_.size());
  for (std::size_t i = 0; i < apps_.size(); ++i) {
    AppOutcome& ao = out.apps[i];
    ao.id = apps_[i].id;
    ao.name = apps_[i].profile.name;
    ao.attacker = apps_[i].is_attacker();
    ao.theta_baseline = baseline.theta[i];
    ao.theta_attacked = attacked.theta[i];
    ao.change = performance_change(ao.theta_attacked, ao.theta_baseline);
    ao.phi = baseline.phi[i];
    (ao.attacker ? change_attackers : change_victims).push_back(ao.change);
  }
  if (!change_attackers.empty() && !change_victims.empty()) {
    out.q_valid = true;
    out.q = attack_effect_q(change_attackers, change_victims);
  }

  out.adaptation = attacked.adaptation;
  if (attacked.response_stats.has_value() && cfg_.response.has_value()) {
    ResponseOutcome ro;
    ro.stats = *attacked.response_stats;
    ro.migrations = attacked.migrations;

    // Collateral: sanctioned cores that are not the attacker's.
    std::unordered_set<NodeId> attacker_cores;
    for (const auto& app : apps_) {
      if (!app.is_attacker()) continue;
      attacker_cores.insert(app.cores.begin(), app.cores.end());
    }
    for (const NodeId n : ro.stats.sanctioned_cores) {
      if (attacker_cores.find(n) == attacker_cores.end()) ++ro.collateral;
    }

    // Recovery, measured against the un-attacked baseline's mean victim
    // grant: the fraction regained over the window, and the first
    // post-sanction measured epoch back above threshold x baseline.
    const double base = baseline.mean_victim_grant_mw;
    if (base > 0.0 && !attacked.victim_grants.empty()) {
      ro.victim_grant_recovery = attacked.mean_victim_grant_mw / base;
      if (ro.stats.first_sanction_epoch >= 0) {
        const int start =
            std::max(0, ro.stats.first_sanction_epoch - cfg_.warmup_epochs);
        const double target = cfg_.response->recovery_threshold * base;
        for (std::size_t e = static_cast<std::size_t>(start);
             e < attacked.victim_grants.size(); ++e) {
          if (attacked.victim_grants[e] >= target) {
            ro.epochs_to_recovery = static_cast<int>(e) - start;
            break;
          }
        }
      }
    }
    out.response = std::move(ro);
  }
  return out;
}

}  // namespace htpb::core
