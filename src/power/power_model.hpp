// Core power model: P(level) = P_leak(V) + C_eff * V^2 * f.
//
// All budgeting traffic quantizes power to integer milliwatts, because the
// paper's POWER_REQ payload is a 32-bit field (Fig. 1a).
#pragma once

#include <cstdint>

#include "cpu/frequency.hpp"

namespace htpb::power {

class CorePowerModel {
 public:
  CorePowerModel() = default;
  CorePowerModel(double leak_w_per_volt, double ceff_nf)
      : leak_w_per_volt_(leak_w_per_volt), ceff_nf_(ceff_nf) {}

  /// Power in watts at a voltage/frequency operating point.
  [[nodiscard]] double watts(const cpu::FreqLevel& lvl) const noexcept {
    const double dynamic = ceff_nf_ * lvl.volts * lvl.volts * lvl.ghz;
    const double leakage = leak_w_per_volt_ * lvl.volts;
    return dynamic + leakage;
  }

  [[nodiscard]] std::uint32_t milliwatts(const cpu::FreqLevel& lvl) const noexcept {
    return static_cast<std::uint32_t>(watts(lvl) * 1000.0 + 0.5);
  }

  /// Power at DVFS level `i` of `table`.
  [[nodiscard]] std::uint32_t milliwatts_at(const cpu::FrequencyTable& table,
                                            int i) const {
    return milliwatts(table.level(i));
  }

  /// Highest level whose power fits within `budget_mw`; returns
  /// `table.min_level()` if even the lowest level does not fit (a core is
  /// never powered off by the budgeting scheme).
  [[nodiscard]] int max_level_within(const cpu::FrequencyTable& table,
                                     std::uint32_t budget_mw) const {
    int best = table.min_level();
    for (int i = table.min_level(); i <= table.max_level(); ++i) {
      if (milliwatts_at(table, i) <= budget_mw) best = i;
    }
    return best;
  }

  friend bool operator==(const CorePowerModel&,
                         const CorePowerModel&) = default;

 private:
  // Defaults give roughly 0.9 W at (1.0 GHz, 0.70 V) and 3.2 W at
  // (2.75 GHz, 0.98 V) -- a plausible many-core tile power range.
  double leak_w_per_volt_ = 0.55;
  double ceff_nf_ = 1.05;
};

}  // namespace htpb::power
