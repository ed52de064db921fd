// Defender-side counterparts to the attack -- the "more research on
// detection and protection" the paper's conclusion calls for.
//
// Detection mechanisms, all deployable at the global manager (the one
// place the false data converges), all purely observational (they never
// perturb the dynamics -- which is what makes request-trace record/replay
// sound, see power/request_trace.hpp):
//
//  1. RequestAnomalyDetector (DetectorKind::kSelfEwma) -- per-core
//     exponentially weighted history of request values. A request that
//     collapses far below its own history (victim attenuation) or
//     explodes far above it (accomplice boost) is flagged. The Trojan
//     cannot evade this without reducing its modification factor, which
//     proportionally weakens the attack. Blind spot: a core whose very
//     first samples are already tampered anchors its history to the
//     attacked level and is never flagged (attack-from-epoch-0).
//
//  2. CohortMedianDetector (DetectorKind::kCohortMedian) -- cross-checks
//     each core against the same epoch's population median instead of the
//     core's own past. Needs no warmup history, so it catches
//     attack-from-epoch-0 streams that defeat the self-history EWMA; the
//     price is false positives on genuinely heterogeneous workloads.
//
//  3. GuardedBudgeter -- a mitigation wrapper around any Budgeter: each
//     core's effective request is clamped into a trust band around its
//     history before allocation, so even unflagged tampering moves the
//     allocation by at most the band width per epoch.
//
// Ownership: all components are stateful per chip lifetime. Experiment
// code must instantiate one per simulated run (campaigns do this from
// DetectorConfig, see core/campaign.hpp) -- sharing one instance across
// runs contaminates every report after the first with the previous run's
// history and cumulative flags.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/json.hpp"
#include "common/types.hpp"
#include "power/budgeter.hpp"

namespace htpb::power {

/// Detector families behind `make_detector` (the "detector zoo"; see the
/// table in docs/ARCHITECTURE.md §6). Part of DetectorConfig so sweep
/// axes can mix families and trust bands freely.
enum class DetectorKind : std::uint8_t {
  kSelfEwma,      ///< per-core EWMA self-history (RequestAnomalyDetector)
  kCohortMedian,  ///< per-epoch population median (CohortMedianDetector)
};

struct DetectorConfig {
  /// Which detector family `make_detector` builds.
  DetectorKind kind = DetectorKind::kSelfEwma;
  /// Smoothing of the per-core request history (kSelfEwma only).
  double history_alpha = 0.25;
  /// Flag when request < low_ratio * reference (victim attenuation).
  /// The reference is the core's own history (kSelfEwma) or the epoch
  /// median (kCohortMedian).
  double low_ratio = 0.45;
  /// Flag when request > high_ratio * reference (accomplice boost).
  double high_ratio = 2.2;
  /// kSelfEwma: positive samples of history required before a core is
  /// judged (cold-start guard). kCohortMedian needs no history and
  /// ignores this (that is the point of a cross-sectional reference).
  int warmup_epochs = 2;
  /// Consecutive anomalous epochs before a core is reported.
  int confirm_epochs = 2;

  /// Throws std::invalid_argument naming the out-of-range member (at
  /// confirm_epochs 0 every observed core is reported in its first epoch).
  void validate() const;

  friend bool operator==(const DetectorConfig&,
                         const DetectorConfig&) = default;

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f("kind", s.kind);
    f("history_alpha", s.history_alpha);
    f("low_ratio", s.low_ratio);
    f("high_ratio", s.high_ratio);
    f("warmup_epochs", s.warmup_epochs);
    f("confirm_epochs", s.confirm_epochs);
  }
};

/// One core's EWMA trust band: the request-history reference that the
/// self-history detector judges against and the guard clamps into.
///
/// Arming contract: a band is armed only after `warmup_epochs` *positive*
/// samples have seeded its reference (and at least one, so a reference
/// exists). Zero-valued samples neither advance warmup nor decay the
/// reference -- an idle core stays in warmup rather than silently
/// draining its band toward zero. In particular a core that idles
/// through the global warmup and wakes late gets the same seeded warmup
/// as everyone else instead of having its first live sample -- possibly
/// already Trojan-attenuated -- trusted verbatim. Once a band IS armed,
/// every sample is judged -- including zeros: a collapse to zero against
/// the core's own past is exactly the attenuation signature.
struct TrustBand {
  double reference = 0.0;
  /// Positive samples absorbed during warm-up.
  int samples = 0;

  [[nodiscard]] bool armed(const DetectorConfig& cfg) const noexcept {
    return samples >= cfg.warmup_epochs && samples > 0;
  }
  /// Folds `value` into the reference with weight history_alpha.
  void blend(const DetectorConfig& cfg, double value) noexcept {
    reference =
        (1.0 - cfg.history_alpha) * reference + cfg.history_alpha * value;
  }
  /// Warm-up step for an unarmed band: a positive sample seeds (first)
  /// or blends into the reference and counts toward arming.
  void learn(const DetectorConfig& cfg, double value) noexcept {
    if (value <= 0.0) return;
    if (samples == 0) {
      reference = value;
    } else {
      blend(cfg, value);
    }
    ++samples;
  }
};

struct DetectorReport {
  std::vector<NodeId> flagged_low;   ///< suspected starved victims
  std::vector<NodeId> flagged_high;  ///< suspected boosted accomplices
  /// Individual request samples fed to the detector.
  std::uint64_t observations = 0;
  /// Epochs the detector has watched (observe_epoch calls).
  std::uint64_t epochs_observed = 0;
  /// Detection latency: 0-based epoch index of the first confirmed flag,
  /// or -1 when nothing was ever flagged.
  int first_flag_epoch = -1;

  [[nodiscard]] bool any() const noexcept {
    return !flagged_low.empty() || !flagged_high.empty();
  }

  /// |flagged_low UNION flagged_high|: the number of distinct cores
  /// flagged. Under duty-cycle swings one core can land in both lists;
  /// rate reductions must divide this, not the summed list sizes, or the
  /// "fraction of cores flagged" exceeds 1.
  [[nodiscard]] std::size_t unique_flagged() const;

  friend bool operator==(const DetectorReport&,
                         const DetectorReport&) = default;
};

/// Self-history detector (DetectorKind::kSelfEwma) and the base class of
/// every manager-side detector.
///
/// Each core is judged against its own TrustBand, under its arming
/// contract. A stream attacked from its very first sample still anchors
/// the band to the attacked level; no self-history scheme can tell, which
/// is what CohortMedianDetector is for. Cores still in warmup are not
/// silent: `unarmed_cores()` counts them for the defender.
class RequestAnomalyDetector {
 public:
  explicit RequestAnomalyDetector(DetectorConfig cfg = {}) : cfg_(cfg) {}
  virtual ~RequestAnomalyDetector() = default;

  /// Feeds one epoch of requests (as received by the manager); returns
  /// the cores newly confirmed anomalous this epoch.
  virtual DetectorReport observe_epoch(std::span<const BudgetRequest> requests);

  /// Re-arms one core's report-once flags (and streaks) so it can be
  /// confirmed anomalous again. The core's history and warmup state are
  /// kept -- the detector still knows what "normal" looks like for it.
  /// Used by the response layer (power/response.hpp) when a sanction
  /// expires; a core already flagged in the cumulative report is not
  /// double-listed on re-confirmation.
  virtual void rearm(NodeId node);

  /// Cores observed but not yet armed (still inside their per-core
  /// warmup). Always-idle cores live here forever -- visible to the
  /// defender instead of silently unmonitored. Cross-sectional detectors
  /// (cohort) arm immediately and return 0.
  [[nodiscard]] virtual std::size_t unarmed_cores() const;

  /// All cores confirmed anomalous so far.
  [[nodiscard]] const DetectorReport& cumulative() const noexcept {
    return cumulative_;
  }
  [[nodiscard]] const DetectorConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] double history_of(NodeId node) const {
    const auto it = state_.find(node);
    return it == state_.end() ? 0.0 : it->second.band.reference;
  }

 protected:
  /// Shared bookkeeping for subclasses: streak/report-once flag logic
  /// writing into `cumulative_` and the per-epoch `newly` report.
  struct FlagState {
    int low_streak = 0;
    int high_streak = 0;
    bool reported_low = false;
    bool reported_high = false;
  };
  void update_flags(FlagState& fs, NodeId node, bool low, bool high,
                    DetectorReport& newly);
  /// Stamps first_flag_epoch on `newly` and the cumulative report.
  void close_epoch(int epoch, DetectorReport& newly);

  DetectorConfig cfg_;
  DetectorReport cumulative_;

 private:
  struct PerCore {
    TrustBand band;
    FlagState flags;
  };

  std::unordered_map<NodeId, PerCore> state_;
};

/// Cross-sectional detector (DetectorKind::kCohortMedian): flags a core
/// whose request sits outside [low_ratio, high_ratio] x the epoch median
/// of all positive requests for `confirm_epochs` consecutive epochs.
/// Because the reference is this epoch's population -- not the core's
/// past -- it needs no warmup and catches streams tampered from the very
/// first sample (attack-from-epoch-0), where the self-history EWMA is
/// blind by construction. Limitations: a minority view (epochs with fewer
/// than kMinCohort positive samples are skipped), and honest workload
/// heterogeneity wider than the band reads as anomalous -- the
/// false-positive arm of the ROC sweep prices that in.
class CohortMedianDetector final : public RequestAnomalyDetector {
 public:
  explicit CohortMedianDetector(DetectorConfig cfg)
      : RequestAnomalyDetector(cfg) {}

  /// Below this many positive samples a median is too thin to judge by;
  /// the epoch is observed (counters advance) but nobody is flagged.
  static constexpr std::size_t kMinCohort = 4;

  DetectorReport observe_epoch(
      std::span<const BudgetRequest> requests) override;
  void rearm(NodeId node) override;
  /// Cohort judgment needs no per-core warmup.
  [[nodiscard]] std::size_t unarmed_cores() const override { return 0; }

 private:
  std::unordered_map<NodeId, FlagState> state_;
};

/// The one construction path for manager-side detectors: dispatches on
/// cfg.kind over the stock detectors. Campaigns construct one fresh
/// instance per attacked run from the campaign's DetectorConfig, and
/// trace replays (power/request_trace.hpp) one per replay.
[[nodiscard]] std::unique_ptr<RequestAnomalyDetector> make_detector(
    const DetectorConfig& cfg);

/// Mitigation: clamp every request into [low_ratio, high_ratio] x its own
/// history before handing it to the wrapped policy. Tampered values still
/// shift the allocation, but only by the band width -- the attack's
/// leverage collapses from ~10x to the band ratio. Each core's band is a
/// TrustBand, armed like the detector's and fed the clamped value.
class GuardedBudgeter final : public Budgeter {
 public:
  GuardedBudgeter(std::unique_ptr<Budgeter> inner,
                  DetectorConfig cfg = {})
      : inner_(std::move(inner)), cfg_(cfg) {}

  [[nodiscard]] std::vector<BudgetGrant> allocate(
      std::span<const BudgetRequest> requests, std::uint64_t budget_mw,
      std::uint32_t floor_mw) const override;

  /// Checkpointing: the per-core trust band (sorted by node). The guard's
  /// history drives allocation, so it is part of the system snapshot.
  [[nodiscard]] json::Value save_state() const override;
  void load_state(const json::Value& v) override;

 private:
  // snapshot-exempt: wrapped policy is stateless config, re-created by construction
  std::unique_ptr<Budgeter> inner_;
  DetectorConfig cfg_;  // snapshot-exempt: construction config, immutable
  // The bands evolve across calls; allocate() is logically const for the
  // Budgeter interface but the guard's memory must persist.
  mutable std::unordered_map<NodeId, TrustBand> bands_;
};

}  // namespace htpb::power
