// The global manager: the designated core that solicits power requests,
// runs the budgeting algorithm over whatever request values arrive (it has
// no way of knowing they were tampered with in flight -- the paper's core
// vulnerability), and replies with POWER_GRANT packets.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/snapshot.hpp"
#include "common/types.hpp"
#include "noc/network.hpp"
#include "power/budgeter.hpp"
#include "power/defense.hpp"
#include "power/request_trace.hpp"
#include "power/response.hpp"

namespace htpb::power {

/// Per-epoch accounting kept by the manager (also the measurement point
/// for the paper's infection rate).
struct EpochRecord {
  Cycle epoch_start = 0;
  /// Cycle the collection window closed (allocate_and_reply ran).
  Cycle allocate_cycle = 0;
  std::uint64_t requests_received = 0;
  std::uint64_t tampered_received = 0;
  /// Requests from victim (non-attacker) applications -- the population
  /// over which the paper's infection rate is defined. Boosted attacker
  /// requests are modifications the attacker *wants*, not infections.
  std::uint64_t victim_requests = 0;
  std::uint64_t budget_mw = 0;
  std::uint64_t granted_mw = 0;
  /// Power granted to victim (non-attacker) applications this epoch --
  /// the quantity a response policy tries to restore (zero when no
  /// attacker lookup is attached).
  std::uint64_t victim_granted_mw = 0;

  [[nodiscard]] double infection_rate() const noexcept {
    return victim_requests == 0
               ? 0.0
               : static_cast<double>(tampered_received) /
                     static_cast<double>(victim_requests);
  }

  friend bool operator==(const EpochRecord&, const EpochRecord&) = default;

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f("epoch_start", s.epoch_start);
    f("allocate_cycle", s.allocate_cycle);
    f("requests_received", s.requests_received);
    f("tampered_received", s.tampered_received);
    f("victim_requests", s.victim_requests);
    f("budget_mw", s.budget_mw);
    f("granted_mw", s.granted_mw);
    f("victim_granted_mw", s.victim_granted_mw);
  }
};

class GlobalManager {
 public:
  GlobalManager(NodeId node, noc::MeshNetwork* net,
                std::unique_ptr<Budgeter> budgeter, std::uint64_t budget_mw,
                std::uint32_t floor_mw)
      : node_(node), net_(net), budgeter_(std::move(budgeter)),
        budget_mw_(budget_mw), floor_mw_(floor_mw) {}

  [[nodiscard]] NodeId node() const noexcept { return node_; }
  [[nodiscard]] std::uint64_t budget_mw() const noexcept { return budget_mw_; }

  /// Opens a new collection window.
  void begin_epoch(Cycle now) {
    pending_.clear();
    victim_nodes_.clear();
    current_ = EpochRecord{};
    current_.epoch_start = now;
    current_.budget_mw = budget_mw_;
    collecting_ = true;
  }

  /// Measurement-only hook: tells the epoch accounting which applications
  /// are the attacker's (a real manager cannot know this -- that is the
  /// point of the attack; the flag only feeds the infection metric).
  void set_attacker_lookup(std::function<bool(AppId)> is_attacker) {
    is_attacker_ = std::move(is_attacker);
  }

  /// Handles an arriving POWER_REQ packet. Requests arriving outside the
  /// collection window are dropped (stragglers from the previous epoch).
  void on_power_request(const noc::Packet& pkt) {
    if (!collecting_ || pkt.type != noc::PacketType::kPowerRequest) return;
    pending_.push_back(BudgetRequest{pkt.src, pkt.src_app, pkt.payload});
    ++current_.requests_received;
    const bool attacker = is_attacker_ && is_attacker_(pkt.src_app);
    if (!attacker) {
      ++current_.victim_requests;
      if (is_attacker_) victim_nodes_.insert(pkt.src);
    }
    if (pkt.tampered) ++current_.tampered_received;
  }

  /// Optional intrusion detector fed with every epoch's raw requests
  /// before allocation (see power/defense.hpp). Not owned: the campaign
  /// that built this system owns one detector per run and keeps it alive
  /// for the manager's lifetime (never shared across runs).
  void attach_detector(RequestAnomalyDetector* detector) noexcept {
    detector_ = detector;
  }

  /// Optional request-trace recorder: appends one TraceEpoch per epoch
  /// with exactly the request vector an attached detector would observe
  /// (empty epochs included), so an offline replay is bit-identical to
  /// in-simulation detection. Not owned; like the detector, the caller
  /// keeps the trace alive for the manager's lifetime. Recording is
  /// purely observational -- it never perturbs collection or allocation.
  void attach_recorder(RequestTrace* trace) noexcept { recorder_ = trace; }

  /// Optional closed-loop response engine (power/response.hpp), fed the
  /// per-epoch newly-confirmed detector verdicts; it enforces its own
  /// sanctions on the allocation. Not owned; requires an attached
  /// detector to ever sanction anything. The detector and the recorder
  /// always observe the RAW request vector first -- responses never
  /// perturb what gets detected or recorded this epoch.
  void attach_response(ResponseEngine* response) noexcept {
    response_ = response;
  }

  /// Closes the window, runs the allocator and sends one POWER_GRANT per
  /// requester. `now` is the closing cycle, kept as epoch metadata (and
  /// in the trace, when recording). Returns the closed epoch's record.
  EpochRecord allocate_and_reply(Cycle now) {
    collecting_ = false;
    current_.allocate_cycle = now;
    if (recorder_ != nullptr) {
      recorder_->epochs.push_back(
          TraceEpoch{current_.epoch_start, now, budget_mw_, pending_});
    }
    DetectorReport newly;
    if (detector_ != nullptr) newly = detector_->observe_epoch(pending_);
    std::vector<BudgetRequest> requests = pending_;
    if (response_ != nullptr) {
      response_->begin_epoch(newly);
      // Explicit 0 mW grants for quarantined cores: a denied core stalls
      // instead of coasting on its previous epoch's grant.
      for (const NodeId denied : response_->filter_requests(requests,
                                                            floor_mw_)) {
        net_->send(net_->make_packet(node_, denied,
                                     noc::PacketType::kPowerGrant, 0));
      }
    }
    const auto grants = budgeter_->allocate(requests, budget_mw_, floor_mw_);
    for (const BudgetGrant& g : grants) {
      const std::uint32_t grant_mw =
          response_ != nullptr
              ? response_->cap_grant(g.node, g.grant_mw, floor_mw_)
              : g.grant_mw;
      current_.granted_mw += grant_mw;
      if (victim_nodes_.find(g.node) != victim_nodes_.end()) {
        current_.victim_granted_mw += grant_mw;
      }
      auto pkt = net_->make_packet(node_, g.node,
                                   noc::PacketType::kPowerGrant, grant_mw);
      net_->send(std::move(pkt));
    }
    if (response_ != nullptr) response_->end_epoch();
    history_.push_back(current_);
    return current_;
  }

  [[nodiscard]] const std::vector<EpochRecord>& history() const noexcept {
    return history_;
  }

  /// Checkpointing: the collection window (pending requests in arrival
  /// order, victim set, current record), epoch history, budget and the
  /// budgeter's own state (GuardedBudgeter trust bands). The attached
  /// detector/recorder/response pointers are wiring and are not captured;
  /// their state is owned by the campaign layer.
  [[nodiscard]] json::Value save_state() const {
    json::Object o;
    o["budget_mw"] = common::ju64(budget_mw_);
    o["collecting"] = json::Value(collecting_);
    json::Array pending;
    for (const BudgetRequest& r : pending_) {
      json::Array a;
      a.push_back(json::Value(static_cast<long long>(r.node)));
      a.push_back(json::Value(static_cast<long long>(r.app)));
      a.push_back(json::Value(static_cast<long long>(r.request_mw)));
      pending.push_back(json::Value(std::move(a)));
    }
    o["pending"] = json::Value(std::move(pending));
    std::vector<NodeId> victims(victim_nodes_.begin(), victim_nodes_.end());
    std::sort(victims.begin(), victims.end());
    json::Array victim_nodes;
    for (const NodeId n : victims) {
      victim_nodes.push_back(json::Value(static_cast<long long>(n)));
    }
    o["victim_nodes"] = json::Value(std::move(victim_nodes));
    o["current"] = common::to_snapshot(current_);
    o["history"] = common::to_snapshot(history_);
    o["budgeter"] = budgeter_->save_state();
    return json::Value(std::move(o));
  }

  void load_state(const json::Value& v) {
    const json::Object& o = v.as_object();
    budget_mw_ = common::pu64(o.at("budget_mw"));
    collecting_ = o.at("collecting").as_bool();
    pending_.clear();
    for (const json::Value& rv : o.at("pending").as_array()) {
      const json::Array& a = rv.as_array();
      pending_.push_back(BudgetRequest{
          static_cast<NodeId>(a.at(0).as_int()),
          static_cast<AppId>(a.at(1).as_int()),
          static_cast<std::uint32_t>(a.at(2).as_int())});
    }
    victim_nodes_.clear();
    for (const json::Value& n : o.at("victim_nodes").as_array()) {
      victim_nodes_.insert(static_cast<NodeId>(n.as_int()));
    }
    common::from_snapshot(o.at("current"), current_);
    common::from_snapshot(o.at("history"), history_);
    budgeter_->load_state(o.at("budgeter"));
  }

  /// Mean infection rate over the recorded epochs, skipping `warmup`.
  [[nodiscard]] double mean_infection_rate(std::size_t warmup = 0) const {
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t i = warmup; i < history_.size(); ++i) {
      sum += history_[i].infection_rate();
      ++n;
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  }

 private:
  NodeId node_;           // snapshot-exempt: construction wiring (manager tile)
  noc::MeshNetwork* net_;  // snapshot-exempt: non-owning wiring, re-attached by construction
  std::unique_ptr<Budgeter> budgeter_;
  std::uint64_t budget_mw_;
  std::uint32_t floor_mw_;  // snapshot-exempt: construction config, immutable
  std::function<bool(AppId)> is_attacker_;  // snapshot-exempt: callback wiring, re-installed by construction
  RequestAnomalyDetector* detector_ = nullptr;  // snapshot-exempt: non-owning; the campaign owns the detector and the snapshot leaves it out
  RequestTrace* recorder_ = nullptr;   // snapshot-exempt: non-owning attached recorder
  ResponseEngine* response_ = nullptr;  // snapshot-exempt: non-owning; the campaign owns the engine and the snapshot leaves it out
  bool collecting_ = false;
  std::vector<BudgetRequest> pending_;
  /// Requesters of victim applications this epoch (victim_granted_mw
  /// attribution; only populated when an attacker lookup is attached).
  std::unordered_set<NodeId> victim_nodes_;
  EpochRecord current_;
  std::vector<EpochRecord> history_;
};

}  // namespace htpb::power
