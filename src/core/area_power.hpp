// Stealth accounting (paper Sec. III-D): area and power of the Trojan
// circuit versus one router and versus the whole chip's NoC. The absolute
// constants are the paper's Synopsys DC / DSENT 45nm-TSMC synthesis
// results; every ratio is derived, not hard-coded, so the
// secIIID-area-power scenario regenerating the Sec. III-D "table"
// exercises real arithmetic.
#pragma once

#include "noc/router_power.hpp"

namespace htpb::core {

struct HtAreaPowerModel {
  /// One Trojan: 12.1716 um^2 and 0.55018 uW (paper Sec. III-D).
  double ht_area_um2 = 12.1716;
  double ht_power_uw = 0.55018;
  noc::RouterAreaPowerModel router;

  [[nodiscard]] double total_area_um2(int hts) const noexcept {
    return ht_area_um2 * hts;
  }
  [[nodiscard]] double total_power_uw(int hts) const noexcept {
    return ht_power_uw * hts;
  }

  /// HT area as a fraction of a single router (paper: ~0.017%).
  [[nodiscard]] double area_fraction_of_router() const noexcept {
    return ht_area_um2 / router.area_um2;
  }
  /// HT power as a fraction of a single router (paper: ~0.0017%).
  [[nodiscard]] double power_fraction_of_router() const noexcept {
    return ht_power_uw / router.power_uw;
  }

  /// `hts` Trojans as a fraction of all routers of an `nodes`-node chip
  /// (paper: 60 HTs on 512 nodes -> ~0.002% area, ~0.0002% power).
  [[nodiscard]] double area_fraction_of_chip(int hts, int nodes) const noexcept {
    return total_area_um2(hts) / router.chip_area_um2(nodes);
  }
  [[nodiscard]] double power_fraction_of_chip(int hts, int nodes) const noexcept {
    return total_power_uw(hts) / router.chip_power_uw(nodes);
  }
};

}  // namespace htpb::core
