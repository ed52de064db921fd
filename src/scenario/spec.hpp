// The declarative scenario API: one serializable value type that captures
// an entire experiment -- mesh/system, workload mix, Trojan behaviour
// (duty-cycle included), placement axes, detector operating points,
// epochs and seeds. Each experimental quantity has one key: the chip is
// `system.width x height` (the size-swept Figs. 3-4 alone sweep it, through
// `axes.arms` / `axes.sizes`), the attacked cluster is `axes.placements`
// and the HT budget is `axes.max_hts`. How a run executes (its pool size)
// is not part of the experiment: it is RunOptions::threads.
//
// Every paper experiment (Figs. 3-6, Tables I-III, the Sec. V placement
// study, the defense extensions) is a ScenarioSpec in the registry
// (scenario/registry.hpp); the single `htpb_run` front end executes specs
// through scenario/runner.hpp. New scenarios -- new Trojan kinds,
// detector grids, response policies -- are new specs (or spec files),
// not new binaries. C++ callers write a spec by assigning its members
// and calling validate().
//
// Validation contract: each config type states its rules once, in its
// own validate(). A spec checks its shared sections through
// core::CampaignConfig::validate() on the campaign_config bridge, with
// errors renamed to spec keys; ScenarioSpec::validate() states only the
// scenario's rules: name, schema, mix names, per-kind axes and the
// quick overlay.
//
// Serialization contract (locked by tests/scenario/spec_test.cpp):
//  - Every section lists its members once, in a static `fields` template
//    (common/fields.hpp); scenario/spec_codec.hpp turns those lists into
//    JSON in both directions, so no member can be written without being
//    read back.
//  - to_json / from_json round-trip exactly: from_json(to_json(s)) == s,
//    including double fields bit for bit.
//  - from_json is strict: unknown keys anywhere in the document are an
//    error (typos must not silently change an experiment), integers must
//    fit their member's type, and schema_version must match
//    kSchemaVersion.
//  - Members are emitted sparsely: a spec's JSON only carries what
//    differs from the defaults, so checked-in spec files stay readable.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "common/types.hpp"
#include "core/campaign.hpp"
#include "core/trojan_config.hpp"
#include "power/budgeter.hpp"
#include "power/defense.hpp"
#include "power/response.hpp"
#include "system/system_config.hpp"

namespace htpb::scenario {

/// Field-list marker (spec codec only): the key must be present on read,
/// and it is written even at its default value.
struct Required {};
inline constexpr Required kRequired{};

/// Bump on any incompatible spec-schema change; from_json rejects files
/// written for a different version instead of guessing.
inline constexpr std::int64_t kSchemaVersion = 1;

/// The experiment families of the paper reproduction. One value per
/// reduction shape (what is swept and what is reported); the shared
/// sections (system/workload/trojan/...) mean the same thing under every
/// kind. Each kind's name, axes rules, run function and fleet split are
/// its row of the kind table (scenario/kinds.hpp).
enum class ScenarioKind : std::uint8_t {
  kInfectionVsHtCount,       ///< Fig. 3: infection rate vs #HTs, GM arms
  kInfectionVsDistribution,  ///< Fig. 4: center/random/corner clusters
  kAttackEffect,             ///< Figs. 5-6: Q and per-app Theta vs infection
  kPlacementStudy,           ///< Sec. V-C: model-optimized vs random
  kDefenseSweep,             ///< Defense ROC: bands x placements (+ROC grid)
  kDefenseEvaluation,        ///< Detection & mitigation per mix
  kAttackComparison,         ///< False-data vs flooding; duty-cycling
  kBudgeterAblation,         ///< Q under every budgeting algorithm
  kConfigReport,             ///< Table I: configuration + timing check
  kBenchmarkReport,          ///< Tables II-III: roster, mixes, measured Phi
  kAreaPowerReport,          ///< Sec. III-D: HT area/power stealth numbers
  kDefenseClosedLoop,        ///< Response policies x {static, adaptive} Trojan
  kCount,  ///< Not a kind: the number of kinds. New kinds go above it.
};

/// Enum names used by the JSON schema (ScenarioKind's from the kind
/// table). Each answers "?" past the last enumerator; the spec codec
/// (scenario/spec_codec.hpp, enum_from_name) parses names by walking the
/// enumerators through it, so the two directions cannot drift.
[[nodiscard]] const char* to_string(ScenarioKind kind) noexcept;
[[nodiscard]] const char* to_string(system::GmPlacement placement) noexcept;
[[nodiscard]] const char* to_string(power::DetectorKind kind) noexcept;

/// Paper mesh shape for a node count (64/128/256/512, Table I's sweep);
/// throws std::invalid_argument otherwise. The spec stores width x height
/// so arbitrary meshes are first-class; size-swept kinds (Figs. 3-4) map
/// their per-arm node counts through this.
[[nodiscard]] std::pair<int, int> mesh_for_size(int nodes);

/// The chip (system::SystemConfig's experiment-relevant surface).
struct SystemSpec {
  int width = 16;
  int height = 16;
  Cycle epoch_cycles = 2000;
  Cycle first_epoch_cycle = 10;
  double budget_fraction = 0.50;
  power::BudgeterKind budgeter = power::BudgeterKind::kProportional;
  system::GmPlacement gm_placement = system::GmPlacement::kCenter;
  std::optional<NodeId> gm_node;
  /// Per-node workload stream seed (SystemConfig::seed).
  std::uint64_t seed = 1;

  [[nodiscard]] system::SystemConfig to_system_config() const;

  friend bool operator==(const SystemSpec&, const SystemSpec&) = default;

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f("width", s.width);
    f("height", s.height);
    f("epoch_cycles", s.epoch_cycles);
    f("first_epoch_cycle", s.first_epoch_cycle);
    f("budget_fraction", s.budget_fraction);
    f("budgeter", s.budgeter);
    f("gm_placement", s.gm_placement);
    f("gm_node", s.gm_node);
    f("seed", s.seed);
  }
};

/// What runs on the chip.
struct WorkloadSpec {
  /// Table III mix name ("mix-1".."mix-4"); empty = the uniform
  /// infection-only workload (Figs. 3-4).
  std::string mix;
  /// Mix axis for kinds that sweep several mixes (Figs. 5-6, the
  /// placement study, the defense evaluation). Takes precedence over
  /// `mix` for those kinds.
  std::vector<std::string> mixes;
  /// Threads per application; 0 = divide all cores evenly.
  int threads_per_app = 0;

  friend bool operator==(const WorkloadSpec&, const WorkloadSpec&) = default;

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f("mix", s.mix);
    f("mixes", s.mixes);
    f("threads_per_app", s.threads_per_app);
  }
};

/// The attacker's CONFIG_CMD payload plus its activation schedule.
struct TrojanSpec {
  bool active = true;
  bool attenuate_victims = true;
  bool boost_attackers = true;
  double victim_scale = 0.125;
  double attacker_boost = 4.0;
  /// Duty-cycled activation: flip the activation signal every N epochs
  /// (Sec. III-B); 0 = static.
  int toggle_period_epochs = 0;
  /// Grant-feedback duty-cycle controller of the adaptive attacker agent
  /// (the closed loop's attacker half). Mutually exclusive with
  /// toggle_period_epochs -- both steer the same activation signal.
  core::TrojanAdaptation adaptation;

  friend bool operator==(const TrojanSpec&, const TrojanSpec&) = default;

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f("active", s.active);
    f("attenuate_victims", s.attenuate_victims);
    f("boost_attackers", s.boost_attackers);
    f("victim_scale", s.victim_scale);
    f("attacker_boost", s.attacker_boost);
    f("toggle_period_epochs", s.toggle_period_epochs);
    f("adaptation", s.adaptation);
  }
};

struct EpochSpec {
  int warmup = 2;
  int measure = 5;

  friend bool operator==(const EpochSpec&, const EpochSpec&) = default;

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f("warmup", s.warmup);
    f("measure", s.measure);
  }
};

/// A trust band [low, high] around the detector reference -- the
/// operating-point axis of defense sweeps.
struct BandSpec {
  double low = 0.45;
  double high = 2.2;

  friend bool operator==(const BandSpec&, const BandSpec&) = default;

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f("low", s.low, kRequired);
    f("high", s.high, kRequired);
  }
};

/// One Fig. 3 arm: a chip size and the #HT sweep evaluated on it.
struct InfectionArm {
  int nodes = 64;
  std::vector<int> ht_counts;

  friend bool operator==(const InfectionArm&, const InfectionArm&) = default;

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f("nodes", s.nodes, kRequired);
    f("ht_counts", s.ht_counts, kRequired);
  }
};

/// A clustered Trojan placement, anchored declaratively so the spec needs
/// no concrete node ids (they depend on the mesh and GM placement).
struct ClusterSpec {
  enum class At : std::uint8_t {
    kGm,       ///< around the global manager (worst case for the defender)
    kCenter,   ///< around the mesh center
    kCorner,   ///< in the (0,0) corner
    kQuarter,  ///< at (width/4, height/4) -- the mid-mesh defense arm
  };

  At at = At::kGm;
  int hts = 8;

  friend bool operator==(const ClusterSpec&, const ClusterSpec&) = default;

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f("at", s.at, kRequired);
    f("hts", s.hts);
  }
};

[[nodiscard]] const char* to_string(ClusterSpec::At at) noexcept;

/// The stealthy-Trojan ROC grid riding on the defense sweep: dynamics
/// axes (duty-cycle period x modification factor) are simulated once per
/// placement; the detector grid (bands x kinds) replays the traces.
struct RocSpec {
  std::vector<int> periods;      ///< toggle periods; 0 = always-on
  std::vector<double> factors;   ///< victim_scale values
  /// How many of the sweep's placements the grid records (a prefix).
  int placements = 0;
  /// first_epoch_cycle for the period=0 (attack-from-epoch-0) cells: the
  /// CONFIG_CMD broadcast must land before the first POWER_REQ.
  Cycle epoch0_first_epoch_cycle = 600;

  [[nodiscard]] bool enabled() const noexcept {
    return !periods.empty() && !factors.empty() && placements > 0;
  }

  friend bool operator==(const RocSpec&, const RocSpec&) = default;

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f("periods", s.periods);
    f("factors", s.factors);
    f("placements", s.placements);
    f("epoch0_first_epoch_cycle", s.epoch0_first_epoch_cycle);
  }
};

/// Kind-specific sweep axes. A spec sets only the fields its kind reads
/// (the rest stay at their defaults and are not emitted), and validate()
/// checks the required ones are populated.
struct AxesSpec {
  // kInfectionVsHtCount
  std::vector<InfectionArm> arms;
  std::vector<system::GmPlacement> gm_placements;
  // kInfectionVsDistribution
  std::vector<int> sizes;
  std::vector<int> ht_divisors;
  /// Random-placement repetitions averaged per cell (Figs. 3-4).
  int seeds = 0;
  // kAttackEffect
  std::vector<double> infection_targets;
  /// The HT budget: kAttackEffect's greedy target-coverage placements
  /// and kPlacementStudy's optimized and random placements use at most
  /// this many Trojans.
  int max_hts = 16;
  // kPlacementStudy
  int train_samples = 24;
  int random_trials = 4;
  int candidates_per_m = 60;
  int shortlist = 3;
  // kDefenseSweep / kDefenseEvaluation / kDefenseClosedLoop
  std::vector<BandSpec> bands;
  /// The attacked clusters. kDefenseSweep and kDefenseClosedLoop sweep
  /// them; kDefenseEvaluation, kAttackComparison and kBudgeterAblation
  /// attack exactly one.
  std::vector<ClusterSpec> placements;
  int detection_measure_epochs = 6;
  RocSpec roc;
  /// kDefenseClosedLoop: the response-policy axis (each kind is one arm).
  std::vector<power::ResponseKind> responses;
  // kAttackComparison
  std::vector<NodeId> flood_sources;
  double flood_rate = 0.15;
  std::vector<int> toggle_periods;
  int duty_warmup_epochs = 0;
  int duty_measure_epochs = 8;
  // kBudgeterAblation
  std::vector<power::BudgeterKind> budgeters;
  // kAreaPowerReport
  std::vector<int> ht_counts;

  friend bool operator==(const AxesSpec&, const AxesSpec&) = default;

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f("arms", s.arms);
    f("gm_placements", s.gm_placements);
    f("sizes", s.sizes);
    f("ht_divisors", s.ht_divisors);
    f("seeds", s.seeds);
    f("infection_targets", s.infection_targets);
    f("max_hts", s.max_hts);
    f("train_samples", s.train_samples);
    f("random_trials", s.random_trials);
    f("candidates_per_m", s.candidates_per_m);
    f("shortlist", s.shortlist);
    f("bands", s.bands);
    f("placements", s.placements);
    f("detection_measure_epochs", s.detection_measure_epochs);
    f("roc", s.roc);
    f("responses", s.responses);
    f("flood_sources", s.flood_sources);
    f("flood_rate", s.flood_rate);
    f("toggle_periods", s.toggle_periods);
    f("duty_warmup_epochs", s.duty_warmup_epochs);
    f("duty_measure_epochs", s.duty_measure_epochs);
    f("budgeters", s.budgeters);
    f("ht_counts", s.ht_counts);
  }
};

struct ScenarioSpec {
  std::int64_t schema_version = kSchemaVersion;
  std::string name;
  ScenarioKind kind = ScenarioKind::kConfigReport;
  /// Descriptive strings (experiment line, paper reference and the
  /// expected qualitative shape); `htpb_run --list` prints the title.
  std::string title;
  std::string paper_ref;
  std::string expectation;

  SystemSpec system;
  WorkloadSpec workload;
  TrojanSpec trojan;
  EpochSpec epochs;
  /// Detection policy for kinds that run one detector in-sim
  /// (kDefenseEvaluation, kDefenseClosedLoop) and the guard that clamps
  /// into its band. kDefenseSweep varies only the band (and, on the ROC
  /// grid, the kind) of this base; absent means DetectorConfig{}.
  std::optional<power::DetectorConfig> detector;
  /// Closed-loop response policy; requires `detector`. For
  /// kDefenseClosedLoop this sets trigger/sanction/recovery parameters
  /// while axes.responses supplies the policy-kind axis.
  std::optional<power::ResponseConfig> response;
  AxesSpec axes;

  /// Experiment-level seed: every stochastic choice the runner makes
  /// (random placements, training samples, optimizer streams, flooder
  /// phases) derives from this value and loop indices alone -- no entry
  /// point reachable from a scenario run draws from a default-seeded Rng
  /// (tests/scenario/runner_test.cpp locks same-seed determinism).
  std::uint64_t seed = 1;

  /// Sparse JSON overlay merged over the spec by with_quick() -- what
  /// `htpb_run --quick` applies (CI-size sweeps). Objects merge
  /// recursively, everything else (arrays included) replaces. kNull =
  /// no quick variant.
  json::Value quick;

  [[nodiscard]] json::Value to_json() const;
  [[nodiscard]] static ScenarioSpec from_json(const json::Value& v);

  /// Schema-level sanity: the shared sections pass
  /// core::CampaignConfig::validate() (errors name the spec key), mix
  /// names are known, kind-required axes are populated and legal -- and
  /// the quick overlay, if any, applies and yields a valid spec, so a
  /// typo'd overlay fails at load, not only under --quick. Throws
  /// std::invalid_argument.
  void validate() const;

  /// The spec with its quick overlay applied (and re-validated); returns
  /// *this unchanged when no overlay is present.
  [[nodiscard]] ScenarioSpec with_quick() const;

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f("schema_version", s.schema_version, kRequired);
    f("name", s.name, kRequired);
    f("kind", s.kind, kRequired);
    f("title", s.title);
    f("paper_ref", s.paper_ref);
    f("expectation", s.expectation);
    f("system", s.system);
    f("workload", s.workload);
    f("trojan", s.trojan);
    f("epochs", s.epochs);
    f("detector", s.detector);
    f("response", s.response);
    f("axes", s.axes);
    f("seed", s.seed);
    f("quick", s.quick);
  }
};

/// The spec's campaign sections as a core::CampaignConfig on Table III
/// mix `mix_name` (empty: the uniform infection-only workload; unknown:
/// std::invalid_argument).
[[nodiscard]] core::CampaignConfig campaign_config(
    const ScenarioSpec& spec, const std::string& mix_name);

/// Parses, deserializes and validates a spec file in one step. Every
/// error -- unreadable file, malformed JSON, schema violation, validate()
/// failure -- is rethrown with the offending path prefixed, so a fleet
/// worker's stderr names which cell file broke.
[[nodiscard]] ScenarioSpec load_spec_file(const std::string& path);

/// Recursive JSON merge used by with_quick(): objects merge member-wise
/// (patch members override or extend), every other patch value replaces
/// the base wholesale.
[[nodiscard]] json::Value merge_patch(const json::Value& base,
                                      const json::Value& patch);

/// `--set key=value` override grammar: `key` is a dot-separated path into
/// the spec JSON ("trojan.victim_scale", "axes.bands", "epochs.measure");
/// `value` is parsed as JSON first ("0.3", "[1,2]", "true") and taken as
/// a bare string when that fails ("mix-2"). Creates missing object
/// members; throws std::runtime_error when the path crosses a non-object.
void apply_override(json::Value& spec_json, std::string_view dotted_key,
                    std::string_view value_text);

}  // namespace htpb::scenario
