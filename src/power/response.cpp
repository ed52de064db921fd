#include "power/response.hpp"

#include <algorithm>
#include <utility>

#include "common/snapshot.hpp"

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

void ResponseEngine::begin_epoch(const DetectorReport& newly) {
  for (auto it = active_.begin(); it != active_.end();) {
    if (it->second <= 0) {
      if (detector_ != nullptr) detector_->rearm(it->first);
      it = active_.erase(it);
    } else {
      ++it;
    }
  }
  if (cfg_.trigger != ResponseTrigger::kLow) {
    for (const NodeId node : newly.flagged_high) sanction(node);
  }
  if (cfg_.trigger != ResponseTrigger::kHigh) {
    for (const NodeId node : newly.flagged_low) sanction(node);
  }
}

void ResponseEngine::sanction(NodeId node) {
  if (std::find(stats_.sanctioned_cores.begin(), stats_.sanctioned_cores.end(),
                node) == stats_.sanctioned_cores.end()) {
    stats_.sanctioned_cores.push_back(node);
  }
  if (stats_.first_sanction_epoch < 0) stats_.first_sanction_epoch = epoch_;
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
