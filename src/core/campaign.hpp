// Experiment campaign runner: builds the chip, injects Trojans through
// the router-inspector hook, broadcasts the attacker's configuration
// packets, runs warmup + measurement epochs, and reduces the raw
// simulator output to the paper's metrics (infection rate, Theta per
// application, Q). The run API is two steps: simulate() turns one
// placement into a RunResult, and reduce() divides an attacked RunResult
// by a Trojan-free one (simulate({})). A baseline is a plain value: it
// depends only on the chip side of the config (system, mix,
// threads_per_app, warmup/measure epochs), so every campaign with that
// chip side -- whatever its Trojan, toggle, detector or response -- may
// reduce against it, and reduce() rejects one from any other chip side.
// Callers list every simulation they need, baselines included, fan them
// out in one pool, and reduce once the pool drains.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/metrics.hpp"
#include "core/trojan.hpp"
#include "core/trojan_config.hpp"
#include "power/defense.hpp"
#include "power/request_trace.hpp"
#include "power/response.hpp"
#include "system/system_config.hpp"
#include "workload/application.hpp"

namespace htpb::system {
class ManyCoreSystem;
}  // namespace htpb::system

namespace htpb::core {

/// The related-work flooding DoS Trojan (Sec. II-B class 1): the flooder
/// at node n sends `rate` junk packets per cycle, drawn from Rng(seed + n).
struct FloodingConfig {
  double rate = 0.15;
  std::uint64_t seed = 0;

  /// rate in (0, 1]: a network interface starts at most one packet per
  /// cycle. Throws std::invalid_argument naming the member.
  void validate() const;
};

struct CampaignConfig {
  system::SystemConfig system;
  /// Benchmark combination (Table III). An empty mix means an
  /// infection-rate-only experiment: every core runs a light uniform
  /// workload and no Q is computed (Figs. 3-4).
  std::optional<workload::Mix> mix;
  /// Threads per application; 0 = divide all cores evenly.
  int threads_per_app = 0;
  /// Trojan behaviour written into the attacker's CONFIG_CMD broadcast
  /// (global_manager / attacker_agents are filled in automatically).
  TrojanConfig trojan;
  int warmup_epochs = 2;
  int measure_epochs = 5;
  /// Duty-cycled activation (Sec. III-B: "a series of configuration
  /// packets can be sent with activation signals alternated to be ON and
  /// OFF"): every `toggle_period_epochs` epochs the agent re-broadcasts
  /// the configuration with the activation signal flipped. 0 = static.
  int toggle_period_epochs = 0;
  /// Optional manager-side intrusion detection policy. When set, every
  /// *attacked* run constructs its own fresh detector from this config
  /// (the baseline is by definition clean), attaches it to the run's
  /// global manager, and surfaces the cumulative DetectorReport in
  /// CampaignOutcome::detection. Per-run instantiation is what makes
  /// defense sweeps parallelizable and placement-order independent: no
  /// EWMA history or flags ever leak from one placement into the next.
  std::optional<power::DetectorConfig> detector;
  /// Closed-loop response policy (power/response.hpp) acting on the
  /// detector's per-epoch verdicts. Requires `detector`; engaged under
  /// the same rule (attacked runs only). Quarantine and throttle filter
  /// the manager's allocation; migrate re-places every application
  /// through the mesh's center mirror at the first confirmed flag's epoch
  /// boundary (modeled as a rebuild-and-resume, see simulate).
  std::optional<power::ResponseConfig> response;
  /// When set, each Trojan node floods the manager instead: simulate()
  /// installs a FloodingAttacker per node after the system's tickables and
  /// no false-data Trojan, so `trojan` and the toggle go unused. The
  /// constructor rejects it together with a `detector` or `response`.
  std::optional<FloodingConfig> flooding;

  /// Checks system, trojan, detector, response and flooding through their
  /// own validate(), the epoch/toggle/thread counts, and the cross-field
  /// rules (a response needs a detector; trojan.adapt excludes the
  /// toggle; flooding excludes both). Throws std::invalid_argument whose
  /// message names member paths as whole words (common/validate.hpp).
  void validate() const;
};

struct AppOutcome {
  AppId id = kInvalidApp;
  std::string name;
  bool attacker = false;
  double theta_baseline = 0.0;  ///< Lambda_k (Def. 2 denominator)
  double theta_attacked = 0.0;  ///< theta_k with HTs
  double change = 1.0;          ///< Theta_k (Def. 2)
  double phi = 0.0;             ///< Phi_k (Def. 5), from the baseline run
};

/// What the closed loop bought (and cost) the defender, reduced from the
/// run's ResponseStats plus app attribution and the baseline.
struct ResponseOutcome {
  /// The run's counters; for kMigrate, the cores whose flags triggered
  /// the migration and the observed-epoch index of its boundary.
  power::ResponseStats stats;
  /// Sanctioned cores that belong to non-attacker applications --
  /// false-positive collateral, the policy punished a victim.
  int collateral = 0;
  /// Measured epochs from the first sanction until the victims' granted
  /// power re-crossed recovery_threshold x the baseline mean; -1 when it
  /// never recovered (or the loop never engaged).
  int epochs_to_recovery = -1;
  /// Mean victims' granted power over the measurement window, as a
  /// fraction of the un-attacked baseline (1.0 = full recovery).
  double victim_grant_recovery = 0.0;
  int migrations = 0;

  friend bool operator==(const ResponseOutcome&,
                         const ResponseOutcome&) = default;
};

/// The adaptive attacker agent's self-accounting (TrojanAdaptation).
struct AdaptationOutcome {
  int epochs_on = 0;    ///< decision epochs spent attacking
  int epochs_off = 0;   ///< decision epochs spent hiding
  int backoffs = 0;     ///< sanctions detected via the grant stream

  /// Mean duty cycle the agent settled on.
  [[nodiscard]] double duty() const noexcept {
    const int total = epochs_on + epochs_off;
    return total == 0 ? 0.0
                      : static_cast<double>(epochs_on) /
                            static_cast<double>(total);
  }

  friend bool operator==(const AdaptationOutcome&,
                         const AdaptationOutcome&) = default;
};

struct CampaignOutcome {
  double infection_measured = 0.0;
  double infection_predicted = 0.0;
  bool q_valid = false;
  double q = 0.0;  ///< Def. 3; valid only when q_valid
  PlacementGeometry geometry{};  ///< rho/eta/m of the placement (m = 0: none)
  std::vector<AppOutcome> apps;
  TrojanStats trojan_totals;
  /// The attacked run's detection outcome; engaged iff the campaign has a
  /// detector configured and the run implanted at least one Trojan node.
  std::optional<power::DetectorReport> detection;
  /// Closed-loop response outcome; engaged iff the campaign has a
  /// response configured (only ever with a detector) and the run
  /// implanted at least one Trojan node.
  std::optional<ResponseOutcome> response;
  /// Adaptive-agent accounting; engaged iff trojan.adapt.enabled and the
  /// run implanted at least one Trojan node.
  std::optional<AdaptationOutcome> adaptation;
};

/// The half of a CampaignConfig a Trojan-free baseline depends on: two
/// campaigns with equal chip sides simulate bit-identical baselines.
struct ChipSide {
  system::SystemConfig system;
  std::optional<workload::Mix> mix;
  int threads_per_app = 0;
  int warmup_epochs = 0;
  int measure_epochs = 0;

  friend bool operator==(const ChipSide&, const ChipSide&) = default;
};

/// One simulation's raw output (AttackCampaign::simulate), before it is
/// reduced against a baseline.
struct RunResult {
  ChipSide chip;  ///< the chip side it was simulated on
  std::vector<double> theta;  ///< per app
  std::vector<double> phi;    ///< per app
  double infection = 0.0;
  TrojanStats trojan_totals;
  std::optional<power::DetectorReport> detection;
  /// Victims' granted power per measured epoch (recovery trajectory)
  /// and its mean (the baseline's mean is the recovery reference).
  std::vector<double> victim_grants;
  double mean_victim_grant_mw = 0.0;
  std::optional<power::ResponseStats> response_stats;
  std::optional<AdaptationOutcome> adaptation;
  int migrations = 0;
  /// Flits the GM's router forwarded, from power-on (warmup included),
  /// summed over legs: the traffic the manager sees.
  std::uint64_t gm_flits = 0;
  /// Junk packets the flooders injected, summed over legs.
  std::uint64_t flood_packets = 0;

  friend bool operator==(const RunResult&, const RunResult&) = default;
};

/// One leg's Trojans and duty-cycle controller state (campaign.cpp).
struct AttackFrame;

class AttackCampaign {
 public:
  explicit AttackCampaign(CampaignConfig cfg);

  [[nodiscard]] const std::vector<workload::Application>& apps() const noexcept {
    return apps_;
  }
  [[nodiscard]] const CampaignConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] NodeId gm_node() const noexcept { return gm_node_; }

  /// Runs one simulation of `ht_nodes` (empty: the Trojan-free
  /// baseline). When `trace` is non-null the GM records its per-epoch
  /// request stream into it; recording never perturbs the run, in-sim
  /// detection included, and replaying the trace through any
  /// DetectorConfig (power/request_trace.hpp) reproduces, bit for bit, the
  /// report an in-simulation detector with that config would have filed.
  /// Const and free of shared state: one campaign may simulate from many
  /// pool threads at once.
  [[nodiscard]] RunResult simulate(std::span<const NodeId> ht_nodes,
                                   power::RequestTrace* trace = nullptr) const;

  /// The paper's metrics for `attacked` (a simulate(ht_nodes) result),
  /// measured against `baseline` (a simulate({}) result). Throws
  /// std::invalid_argument when `baseline` was simulated on a different
  /// chip side than this campaign's.
  [[nodiscard]] CampaignOutcome reduce(const RunResult& attacked,
                                       const RunResult& baseline,
                                       std::span<const NodeId> ht_nodes) const;

  /// This response arm's RunResult without simulating it, read off the
  /// result of its response-free twin (simulate() of the same placement
  /// on this config with `response` unset): when the twin's cumulative
  /// detection report holds no verdict the response trigger listens to,
  /// no sanction ever lands, so the engine only observes and the arm
  /// follows the twin bit for bit -- the twin's result with
  /// response_stats set as simulate() sets it. nullopt when the trigger
  /// fires (the arm must be simulated). Throws std::invalid_argument
  /// when the twin was simulated on a different chip side.
  [[nodiscard]] std::optional<RunResult> derive_unsanctioned(
      const RunResult& response_free) const;

  /// Process-wide count of ManyCoreSystem legs simulated (baselines
  /// included); simulate() builds every chip outside src/system/, so every
  /// chip a scenario runs counts. Monotonic, thread-safe. The trace tests
  /// assert on deltas of it that a defense sweep's detection arm simulates
  /// O(placements) times, independent of the detector-grid size.
  [[nodiscard]] static std::uint64_t systems_simulated() noexcept;

  /// Process-wide count of warmup epochs simulated, summed over legs
  /// (every leg simulates its own warmup). Monotonic, thread-safe.
  [[nodiscard]] static std::uint64_t warmup_epochs_simulated() noexcept;

 private:
  [[nodiscard]] ChipSide chip_side() const;

  /// Implants the Trojans into `sys`, broadcasts the attacker's
  /// configuration and arms the duty-cycle controllers (serializable
  /// kCampaignToggle / kCampaignAdapt events whose handlers close over
  /// `frame`); under `flooding`, installs the flooders instead.
  void install_attack(system::ManyCoreSystem& sys,
                      const std::vector<workload::Application>& apps,
                      std::span<const NodeId> ht_nodes,
                      AttackFrame& frame) const;

  CampaignConfig cfg_;
  std::vector<workload::Application> apps_;
  NodeId gm_node_ = kInvalidNode;
};

}  // namespace htpb::core
