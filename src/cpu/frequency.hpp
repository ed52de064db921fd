// DVFS frequency/voltage operating points.
//
// Table I does not list the frequency ladder, so we use eight evenly
// spaced levels from 1.0 to 2.75 GHz with a linear voltage map -- the
// shape assumed by the paper's Definition 4 (a totally ordered ladder
// tau_1 < tau_2 < ... < tau_s).
#pragma once

#include <stdexcept>
#include <vector>

namespace htpb::cpu {

struct FreqLevel {
  double ghz = 1.0;
  double volts = 0.8;

  friend bool operator==(const FreqLevel&, const FreqLevel&) = default;
};

class FrequencyTable {
 public:
  FrequencyTable() : FrequencyTable(default_levels()) {}

  explicit FrequencyTable(std::vector<FreqLevel> levels)
      : levels_(std::move(levels)) {
    if (levels_.size() < 2) {
      throw std::invalid_argument("FrequencyTable: need at least 2 levels");
    }
    for (std::size_t i = 1; i < levels_.size(); ++i) {
      if (levels_[i].ghz <= levels_[i - 1].ghz) {
        throw std::invalid_argument(
            "FrequencyTable: levels must be strictly increasing");
      }
    }
  }

  [[nodiscard]] int num_levels() const noexcept {
    return static_cast<int>(levels_.size());
  }
  [[nodiscard]] const FreqLevel& level(int i) const {
    return levels_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] int min_level() const noexcept { return 0; }
  [[nodiscard]] int max_level() const noexcept { return num_levels() - 1; }
  [[nodiscard]] double ghz(int i) const { return level(i).ghz; }
  [[nodiscard]] double volts(int i) const { return level(i).volts; }

  /// Default ladder: 8 levels spanning 0.6 - 2.75 GHz with a linear
  /// voltage map. The wide span matters for the attack study: a starved
  /// victim drops to 0.6 GHz while a boosted attacker reaches 2.75 GHz,
  /// giving the dynamic range the paper's Theta/Q excursions exhibit.
  [[nodiscard]] static std::vector<FreqLevel> default_levels() {
    std::vector<FreqLevel> levels;
    for (int i = 0; i < 8; ++i) {
      const double f = 0.60 + (2.75 - 0.60) / 7.0 * i;
      levels.push_back(FreqLevel{f, 0.65 + 0.14 * (f - 0.60)});
    }
    return levels;
  }

  friend bool operator==(const FrequencyTable&,
                         const FrequencyTable&) = default;

 private:
  std::vector<FreqLevel> levels_;
};

}  // namespace htpb::cpu
