#include "power/defense.hpp"

#include <algorithm>
#include <utility>

#include "common/validate.hpp"

namespace htpb::power {

namespace {

/// Sorted key list of an unordered node-keyed map (deterministic dumps).
template <typename Map>
std::vector<NodeId> sorted_nodes(const Map& m) {
  std::vector<NodeId> nodes;
  nodes.reserve(m.size());
  for (const auto& [node, value] : m) nodes.push_back(node);
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

}  // namespace

void DetectorConfig::validate() const {
  require(low_ratio > 0.0 && low_ratio < high_ratio,
          "low_ratio must be in (0, high_ratio)");
  require(history_alpha > 0.0 && history_alpha <= 1.0,
          "history_alpha must be in (0, 1]");
  require(warmup_epochs >= 0, "warmup_epochs must be >= 0");
  require(confirm_epochs >= 1, "confirm_epochs must be >= 1");
}

std::size_t DetectorReport::unique_flagged() const {
  std::vector<NodeId> all;
  all.reserve(flagged_low.size() + flagged_high.size());
  all.insert(all.end(), flagged_low.begin(), flagged_low.end());
  all.insert(all.end(), flagged_high.begin(), flagged_high.end());
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all.size();
}

void RequestAnomalyDetector::update_flags(FlagState& fs, NodeId node,
                                          bool low, bool high,
                                          DetectorReport& newly) {
  // Keeps a re-armed core (see rearm()) from landing in the cumulative
  // list twice on re-confirmation; rates divide by these list sizes.
  const auto once = [](std::vector<NodeId>& list, NodeId n) {
    if (std::find(list.begin(), list.end(), n) == list.end())
      list.push_back(n);
  };
  fs.low_streak = low ? fs.low_streak + 1 : 0;
  fs.high_streak = high ? fs.high_streak + 1 : 0;
  if (fs.low_streak >= cfg_.confirm_epochs && !fs.reported_low) {
    fs.reported_low = true;
    newly.flagged_low.push_back(node);
    once(cumulative_.flagged_low, node);
  }
  if (fs.high_streak >= cfg_.confirm_epochs && !fs.reported_high) {
    fs.reported_high = true;
    newly.flagged_high.push_back(node);
    once(cumulative_.flagged_high, node);
  }
}

void RequestAnomalyDetector::close_epoch(int epoch, DetectorReport& newly) {
  if (newly.any()) {
    newly.first_flag_epoch = epoch;
    if (cumulative_.first_flag_epoch < 0) {
      cumulative_.first_flag_epoch = epoch;
    }
  }
}

DetectorReport RequestAnomalyDetector::observe_epoch(
    std::span<const BudgetRequest> requests) {
  const int epoch = static_cast<int>(cumulative_.epochs_observed);
  ++cumulative_.epochs_observed;
  DetectorReport newly;
  newly.epochs_observed = 1;
  for (const BudgetRequest& req : requests) {
    PerCore& pc = state_[req.node];
    ++cumulative_.observations;
    ++newly.observations;
    const double value = static_cast<double>(req.request_mw);
    if (pc.band.armed(cfg_)) {
      const bool low = value < cfg_.low_ratio * pc.band.reference;
      const bool high = value > cfg_.high_ratio * pc.band.reference;
      update_flags(pc.flags, req.node, low, high, newly);
      // Anomalous samples do not poison the trusted history.
      if (!low && !high) pc.band.blend(cfg_, value);
    } else {
      pc.band.learn(cfg_, value);
    }
  }
  close_epoch(epoch, newly);
  return newly;
}

void RequestAnomalyDetector::rearm(NodeId node) {
  const auto it = state_.find(node);
  if (it != state_.end()) it->second.flags = FlagState{};
}

std::size_t RequestAnomalyDetector::unarmed_cores() const {
  std::size_t n = 0;
  // htpb-lint: allow(unordered-iter) order-insensitive count over all entries
  for (const auto& [node, pc] : state_) {
    if (!pc.band.armed(cfg_)) ++n;
  }
  return n;
}

DetectorReport CohortMedianDetector::observe_epoch(
    std::span<const BudgetRequest> requests) {
  const int epoch = static_cast<int>(cumulative_.epochs_observed);
  ++cumulative_.epochs_observed;
  DetectorReport newly;
  newly.epochs_observed = 1;
  cumulative_.observations += requests.size();
  newly.observations = requests.size();

  // The reference: this epoch's median over the positive requests.
  std::vector<std::uint32_t> values;
  values.reserve(requests.size());
  for (const BudgetRequest& req : requests) {
    if (req.request_mw > 0) values.push_back(req.request_mw);
  }
  if (values.size() < kMinCohort) {
    close_epoch(epoch, newly);
    return newly;  // too thin a cohort to judge anyone by
  }
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  double median = static_cast<double>(values[mid]);
  if (values.size() % 2 == 0) {
    // Lower middle: the largest element below the nth.
    const auto lower =
        *std::max_element(values.begin(), values.begin() + mid);
    median = (median + static_cast<double>(lower)) / 2.0;
  }

  for (const BudgetRequest& req : requests) {
    // Zero-valued (idle) samples are not cohort members and are never
    // judged: with no per-core history there is nothing to say an idle
    // core is anomalous. (Different from an ARMED self-history core,
    // where a collapse to zero against the core's own past is exactly
    // the attenuation signature and is flagged.)
    if (req.request_mw == 0) continue;
    const double value = static_cast<double>(req.request_mw);
    const bool low = value < cfg_.low_ratio * median;
    const bool high = value > cfg_.high_ratio * median;
    update_flags(state_[req.node], req.node, low, high, newly);
  }
  close_epoch(epoch, newly);
  return newly;
}

void CohortMedianDetector::rearm(NodeId node) {
  const auto it = state_.find(node);
  if (it != state_.end()) it->second = FlagState{};
}

std::unique_ptr<RequestAnomalyDetector> make_detector(
    const DetectorConfig& cfg) {
  switch (cfg.kind) {
    case DetectorKind::kCohortMedian:
      return std::make_unique<CohortMedianDetector>(cfg);
    case DetectorKind::kSelfEwma:
      break;
  }
  return std::make_unique<RequestAnomalyDetector>(cfg);
}

std::vector<BudgetGrant> GuardedBudgeter::allocate(
    std::span<const BudgetRequest> requests, std::uint64_t budget_mw,
    std::uint32_t floor_mw) const {
  std::vector<BudgetRequest> clamped(requests.begin(), requests.end());
  for (BudgetRequest& req : clamped) {
    TrustBand& band = bands_[req.node];
    const double value = static_cast<double>(req.request_mw);
    if (band.armed(cfg_)) {
      const double used = std::clamp(value, cfg_.low_ratio * band.reference,
                                     cfg_.high_ratio * band.reference);
      req.request_mw = static_cast<std::uint32_t>(used);
      // Track the clamped (trusted) value, not the raw one.
      band.blend(cfg_, used);
    } else {
      band.learn(cfg_, value);
    }
  }
  return inner_->allocate(clamped, budget_mw, floor_mw);
}

json::Value GuardedBudgeter::save_state() const {
  json::Object o;
  json::Array state;
  for (const NodeId node : sorted_nodes(bands_)) {
    const TrustBand& band = bands_.at(node);
    json::Array a;
    a.push_back(json::Value(static_cast<long long>(node)));
    a.push_back(json::Value(band.reference));
    a.push_back(json::Value(static_cast<long long>(band.samples)));
    state.push_back(json::Value(std::move(a)));
  }
  o["state"] = json::Value(std::move(state));
  return json::Value(std::move(o));
}

void GuardedBudgeter::load_state(const json::Value& v) {
  const json::Object& o = v.as_object();
  bands_.clear();
  for (const json::Value& sv : o.at("state").as_array()) {
    const json::Array& a = sv.as_array();
    bands_[static_cast<NodeId>(a.at(0).as_int())] =
        TrustBand{a.at(1).as_double(), static_cast<int>(a.at(2).as_int())};
  }
}

}  // namespace htpb::power
