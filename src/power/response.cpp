#include "power/response.hpp"

#include <utility>

#include "common/snapshot.hpp"
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

json::Value ResponseEngine::save_state() const {
  json::Object o;
  json::Array active;
  for (const auto& [node, remaining] : active_) {
    json::Array a;
    a.push_back(json::Value(static_cast<long long>(node)));
    a.push_back(json::Value(static_cast<long long>(remaining)));
    active.push_back(json::Value(std::move(a)));
  }
  o["active"] = json::Value(std::move(active));
  o["stats"] = common::to_snapshot(stats_);
  o["epoch"] = json::Value(static_cast<long long>(epoch_));
  return json::Value(std::move(o));
}

void ResponseEngine::load_state(const json::Value& v) {
  const json::Object& o = v.as_object();
  active_.clear();
  for (const json::Value& av : o.at("active").as_array()) {
    const json::Array& a = av.as_array();
    active_[static_cast<NodeId>(a.at(0).as_int())] =
        static_cast<int>(a.at(1).as_int());
  }
  common::from_snapshot(o.at("stats"), stats_);
  epoch_ = static_cast<int>(o.at("epoch").as_int());
}

}  // namespace htpb::power
