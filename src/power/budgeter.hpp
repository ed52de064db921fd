// Power-budgeting algorithms run by the global manager.
//
// The paper stresses the attack works "irrespective of the power budgeting
// algorithms [8], [9]" the manager runs. We therefore implement five
// allocators spanning the design space the paper cites: uniform, greedy
// heuristic [8], proportional sharing, dynamic programming [9] and
// market-based redistribution [6]. All of them decide purely from the
// requested values -- which is exactly the vulnerability the Trojan
// exploits.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/types.hpp"

namespace htpb::power {

/// One core's POWER_REQ as it reached the manager. The manager cannot
/// distinguish an honest request from one rewritten in flight by an
/// in-router Trojan -- that asymmetry is the paper's attack surface.
struct BudgetRequest {
  NodeId node = kInvalidNode;
  AppId app = kInvalidApp;
  /// Requested power in milliwatts (the POWER_REQ payload as received --
  /// possibly tampered).
  std::uint32_t request_mw = 0;

  // Request traces (power/request_trace.hpp) compare recorded epochs.
  friend bool operator==(const BudgetRequest&, const BudgetRequest&) = default;
};

/// The manager's answer, sent back as a POWER_GRANT: the power cap the
/// core must run under until the next epoch.
struct BudgetGrant {
  NodeId node = kInvalidNode;
  std::uint32_t grant_mw = 0;
};

/// Selector for `make_budgeter`; one value per allocator family cited in
/// the header comment above.
enum class BudgeterKind {
  kUniform,
  kGreedy,
  kProportional,
  kDynamicProgramming,
  kMarket,
};

/// Interface of a power-budgeting algorithm. Implementations are
/// stateless and epoch-free: the global manager calls `allocate` once per
/// epoch with the requests it collected, applies the grants, and forgets.
class Budgeter {
 public:
  virtual ~Budgeter() = default;

  /// Splits `budget_mw` among the requests. Implementations guarantee:
  ///  - sum(grants) <= budget_mw,
  ///  - grant_i <= request_i (a core never receives more than it asked),
  ///  - every requester receives at least min(floor_mw, request_i), where
  ///    floor_mw is the chip's per-core minimum operating power, provided
  ///    the budget suffices for all floors.
  [[nodiscard]] virtual std::vector<BudgetGrant> allocate(
      std::span<const BudgetRequest> requests, std::uint64_t budget_mw,
      std::uint32_t floor_mw) const = 0;

  /// Checkpointing: the stock allocators are stateless and return null /
  /// ignore loads; stateful wrappers (GuardedBudgeter) override both.
  [[nodiscard]] virtual json::Value save_state() const { return json::Value(); }
  virtual void load_state(const json::Value& /*v*/) {}
};

/// Equal shares, capped at the request; leftovers redistributed.
class UniformBudgeter final : public Budgeter {
 public:
  [[nodiscard]] std::vector<BudgetGrant> allocate(
      std::span<const BudgetRequest> requests, std::uint64_t budget_mw,
      std::uint32_t floor_mw) const override;
};

/// Greedy heuristic in the spirit of SmartCap [8]: satisfy the smallest
/// outstanding demands first (maximizes the number of fully satisfied
/// cores under a cap).
class GreedyBudgeter final : public Budgeter {
 public:
  [[nodiscard]] std::vector<BudgetGrant> allocate(
      std::span<const BudgetRequest> requests, std::uint64_t budget_mw,
      std::uint32_t floor_mw) const override;
};

/// Grants proportional to the requested amount above the floor.
class ProportionalBudgeter final : public Budgeter {
 public:
  [[nodiscard]] std::vector<BudgetGrant> allocate(
      std::span<const BudgetRequest> requests, std::uint64_t budget_mw,
      std::uint32_t floor_mw) const override;
};

/// Fine-grained DP allocation [9]: discretizes the budget and maximizes a
/// concave utility sum(sqrt(grant_i / request_i)) so extra power has
/// diminishing returns, via incremental (greedy-on-concave == optimal)
/// marginal allocation.
class DpBudgeter final : public Budgeter {
 public:
  explicit DpBudgeter(std::uint32_t quantum_mw = 50)
      : quantum_mw_(quantum_mw) {}
  [[nodiscard]] std::vector<BudgetGrant> allocate(
      std::span<const BudgetRequest> requests, std::uint64_t budget_mw,
      std::uint32_t floor_mw) const override;

 private:
  std::uint32_t quantum_mw_;
};

/// Market/elasticity style [6]: everyone starts from an equal endowment;
/// cores demanding less than their endowment sell the surplus, which is
/// redistributed proportionally to unmet demand.
class MarketBudgeter final : public Budgeter {
 public:
  [[nodiscard]] std::vector<BudgetGrant> allocate(
      std::span<const BudgetRequest> requests, std::uint64_t budget_mw,
      std::uint32_t floor_mw) const override;
};

/// Factory over every allocator above (budgeter-ablation sweeps it).
[[nodiscard]] std::unique_ptr<Budgeter> make_budgeter(BudgeterKind kind);
/// Stable short name for reports and result trees.
[[nodiscard]] const char* to_string(BudgeterKind kind) noexcept;

}  // namespace htpb::power
