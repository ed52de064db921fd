// Closed-loop response policies: what the global manager DOES once a
// detector (power/defense.hpp) confirms a core anomalous.
//
// Detection alone never changes a single grant; the paper's defense story
// ends there. The ResponseEngine closes the loop at the one point all
// false data converges -- the manager's allocation step -- with three
// policies:
//
//  - kQuarantine: a sanctioned core's request is dropped from the
//    allocation entirely and it receives an explicit 0 mW grant (full
//    stall) for `sanction_epochs` epochs. Maximum Q recovery, maximum
//    collateral when the flag was false.
//  - kThrottle: a sanctioned core's request is clamped to the chip's
//    per-core floor before allocation (freeing the budget the boosted
//    request would have captured) and its grant is clamped to the floor
//    after allocation. The core keeps running at the idle floor.
//  - kMigrate: the campaign layer (core/campaign.hpp) builds no engine;
//    it re-places the victim workload at the epoch boundary of the first
//    verdict the trigger listens to. Allocation is never filtered.
//
// Sanctions act on per-epoch *newly confirmed* detector verdicts, always
// at epoch boundaries (inside GlobalManager::allocate_and_reply), and
// expire after `sanction_epochs` epochs. On expiry the detector is
// re-armed for the released core (RequestAnomalyDetector::rearm), so a
// core that resumes anomalous behaviour is re-confirmed and re-sanctioned
// -- the loop keeps looping.
//
// Ordering contract: the detector and any trace recorder observe the RAW
// request vector before the engine filters anything. A sanction perturbs
// the dynamics (grants change -> future requests change), so unlike
// detection a run that sanctions is NOT replayable from a recorded trace
// and must be simulated. Before its first sanction the engine only
// observes, so a run whose trigger never fires is bit for bit its
// response-free twin (AttackCampaign::derive_unsanctioned).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "common/types.hpp"
#include "power/defense.hpp"

namespace htpb::power {

/// Response policy families; see the header comment for semantics.
enum class ResponseKind : std::uint8_t {
  kQuarantine,  ///< deny sanctioned cores' requests (0 mW grant)
  kThrottle,    ///< clamp sanctioned cores' requests & grants to the floor
  kMigrate,     ///< the campaign re-places the victims on a verdict
};

[[nodiscard]] const char* to_string(ResponseKind kind);

/// Which detector verdict list triggers a sanction. Boosted accomplices
/// land in flagged_high; starved victims land in flagged_low. Sanctioning
/// flagged_low cores punishes the attack's *victims* -- deliberate
/// collateral a defender may still accept to starve the attack of its
/// redistributed budget.
enum class ResponseTrigger : std::uint8_t {
  kHigh,  ///< sanction flagged_high only (default)
  kLow,   ///< sanction flagged_low only
  kBoth,  ///< sanction every confirmed core
};

[[nodiscard]] const char* to_string(ResponseTrigger trigger);

/// Calls `visit(node)` for every node of `report` that `trigger` listens
/// to: flagged_high first, then flagged_low. The one statement of which
/// verdicts a response acts on (sanctions and the migrate trigger alike).
template <class Visit>
void for_each_triggered(ResponseTrigger trigger, const DetectorReport& report,
                        Visit&& visit) {
  if (trigger != ResponseTrigger::kLow) {
    for (const NodeId node : report.flagged_high) visit(node);
  }
  if (trigger != ResponseTrigger::kHigh) {
    for (const NodeId node : report.flagged_low) visit(node);
  }
}

struct ResponseConfig {
  ResponseKind kind = ResponseKind::kQuarantine;
  ResponseTrigger trigger = ResponseTrigger::kHigh;
  /// Epochs a sanction stays in force before it expires and the detector
  /// is re-armed for the core.
  int sanction_epochs = 3;
  /// Campaign-layer recovery criterion: the victims' mean granted power,
  /// as a fraction of the un-attacked baseline, at which the attack
  /// counts as neutralised (ResponseOutcome::epochs_to_recovery).
  double recovery_threshold = 0.9;

  /// Throws std::invalid_argument naming the out-of-range member.
  void validate() const;

  friend bool operator==(const ResponseConfig&,
                         const ResponseConfig&) = default;

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f("kind", s.kind);
    f("trigger", s.trigger);
    f("sanction_epochs", s.sanction_epochs);
    f("recovery_threshold", s.recovery_threshold);
  }
};

/// Raw per-run counters the engine accumulates; the campaign layer
/// reduces them (plus app attribution) into a ResponseOutcome.
struct ResponseStats {
  /// Distinct sanctioned cores, in first-sanction order.
  std::vector<NodeId> sanctioned_cores;
  /// Sum over epochs of |active sanctions| (core-epochs of sanction).
  std::uint64_t sanction_core_epochs = 0;
  /// Requests dropped from allocation (kQuarantine).
  std::uint64_t denied_requests = 0;
  /// Requests or grants clamped to the floor (kThrottle).
  std::uint64_t clamped_requests = 0;
  /// 0-based epoch (since the engine started watching) of the first
  /// sanction, or -1 when nothing was ever sanctioned.
  int first_sanction_epoch = -1;

  /// Books a sanction of `node` at `epoch` (each core listed once).
  void record(NodeId node, int epoch) {
    if (std::find(sanctioned_cores.begin(), sanctioned_cores.end(), node) ==
        sanctioned_cores.end()) {
      sanctioned_cores.push_back(node);
    }
    if (first_sanction_epoch < 0) first_sanction_epoch = epoch;
  }

  friend bool operator==(const ResponseStats&, const ResponseStats&) = default;
};

/// Per-run sanction bookkeeping, driven by GlobalManager once per epoch.
/// Same ownership contract as the detector: one engine per simulated run,
/// attached non-owning, never shared across runs.
class ResponseEngine {
 public:
  explicit ResponseEngine(ResponseConfig cfg) : cfg_(cfg) {}

  /// The detector to re-arm when a sanction expires (not owned; may be
  /// null, in which case released cores stay report-once).
  void attach_detector(RequestAnomalyDetector* detector) noexcept {
    detector_ = detector;
  }

  /// Epoch-boundary step 1 (before allocation): release expired
  /// sanctions (re-arming the detector for each released core), then
  /// ingest this epoch's newly confirmed verdicts per the trigger.
  void begin_epoch(const DetectorReport& newly);

  /// Sanctions before allocation, each drop or clamp counted: kQuarantine
  /// drops sanctioned requests and returns their nodes in request order
  /// (each is owed a 0 mW grant); kThrottle clamps those above
  /// `floor_mw` to it.
  /// kMigrate and unsanctioned requests pass through untouched.
  [[nodiscard]] std::vector<NodeId> filter_requests(
      std::vector<BudgetRequest>& requests, std::uint32_t floor_mw);

  /// Sanctions after allocation: `grant_mw`, clamped to `floor_mw` for a
  /// throttled core.
  [[nodiscard]] std::uint32_t cap_grant(NodeId node, std::uint32_t grant_mw,
                                        std::uint32_t floor_mw) const {
    const bool throttled =
        cfg_.kind == ResponseKind::kThrottle && sanctioned(node);
    return throttled ? std::min(grant_mw, floor_mw) : grant_mw;
  }

  /// Epoch-boundary step 2 (after allocation): age every active sanction
  /// by one epoch and advance the epoch counter.
  void end_epoch();

  [[nodiscard]] bool sanctioned(NodeId node) const {
    return active_.find(node) != active_.end();
  }
  [[nodiscard]] const ResponseStats& stats() const noexcept { return stats_; }

 private:
  void sanction(NodeId node);

  ResponseConfig cfg_;
  RequestAnomalyDetector* detector_ = nullptr;
  /// node -> remaining sanction epochs. std::map: iteration order must be
  /// deterministic (release/re-arm order feeds detector state).
  std::map<NodeId, int> active_;
  ResponseStats stats_;
  int epoch_ = 0;
};

}  // namespace htpb::power
