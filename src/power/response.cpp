#include "power/response.hpp"

#include <utility>

#include "common/validate.hpp"

namespace htpb::power {

const char* to_string(ResponseKind kind) {
  switch (kind) {
    case ResponseKind::kQuarantine: return "quarantine";
    case ResponseKind::kThrottle: return "throttle";
    case ResponseKind::kMigrate: return "migrate";
  }
  return "?";
}

const char* to_string(ResponseTrigger trigger) {
  switch (trigger) {
    case ResponseTrigger::kHigh: return "high";
    case ResponseTrigger::kLow: return "low";
    case ResponseTrigger::kBoth: return "both";
  }
  return "?";
}

void ResponseConfig::validate() const {
  require(sanction_epochs >= 1, "sanction_epochs must be >= 1");
  require(recovery_threshold > 0.0 && recovery_threshold <= 2.0,
          "recovery_threshold must be in (0, 2]");
}

void ResponseEngine::begin_epoch(const DetectorReport& newly) {
  for (auto it = active_.begin(); it != active_.end();) {
    if (it->second <= 0) {
      if (detector_ != nullptr) detector_->rearm(it->first);
      it = active_.erase(it);
    } else {
      ++it;
    }
  }
  for_each_triggered(cfg_.trigger, newly,
                     [this](NodeId node) { sanction(node); });
}

std::vector<NodeId> ResponseEngine::filter_requests(
    std::vector<BudgetRequest>& requests, std::uint32_t floor_mw) {
  std::vector<NodeId> denied;
  if (active_.empty()) return denied;
  switch (cfg_.kind) {
    case ResponseKind::kQuarantine:
      for (const BudgetRequest& r : requests) {
        if (sanctioned(r.node)) denied.push_back(r.node);
      }
      std::erase_if(requests, [this](const BudgetRequest& r) {
        return sanctioned(r.node);
      });
      stats_.denied_requests += denied.size();
      break;
    case ResponseKind::kThrottle:
      for (BudgetRequest& r : requests) {
        if (sanctioned(r.node) && r.request_mw > floor_mw) {
          r.request_mw = floor_mw;
          ++stats_.clamped_requests;
        }
      }
      break;
    case ResponseKind::kMigrate:  // the campaign re-places instead
      break;
  }
  return denied;
}

void ResponseEngine::sanction(NodeId node) {
  stats_.record(node, epoch_);
  active_[node] = cfg_.sanction_epochs;
}

void ResponseEngine::end_epoch() {
  for (auto& [node, remaining] : active_) {
    --remaining;
    ++stats_.sanction_core_epochs;
  }
  ++epoch_;
}

}  // namespace htpb::power
