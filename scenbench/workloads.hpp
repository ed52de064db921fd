// The scenario benchmark's workloads and what it checks about their
// outputs. A workload is a registry scenario (optionally at its quick
// overlay) run one scenario at a time through the public scenario API, or
// through core::FleetScheduler for the fleet workload.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "system/system_config.hpp"
#include "workload/application.hpp"

namespace scenbench {

struct Workload {
  std::string_view name;
  std::string_view scenario;  ///< registry name
  bool quick;                 ///< apply the spec's quick overlay
  bool fleet;                 ///< timed through FleetScheduler, not in-process
  /// JSON merge patch applied over the (quick) spec; empty = none.
  std::string_view patch;
  /// Further patch applied over the quick spec in --smoke mode, so the
  /// self-test runs every workload's code path in about a second.
  std::string_view smoke_patch;
};

[[nodiscard]] const std::vector<Workload>& workloads();
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// What one run of a workload executes.
struct Inputs {
  htpb::scenario::ScenarioSpec spec;  ///< smoke patch applied, not resolved
  htpb::scenario::RunOptions opts;    ///< quick, threads and seed
  std::string digest_key;  ///< "<workload>" or "<workload>/smoke"
  std::string seed_key;    ///< "default" or the --seed value
};

[[nodiscard]] Inputs make_inputs(const Workload& w,
                                 std::optional<std::uint64_t> seed, bool smoke,
                                 int threads);

/// FNV-1a-64 of the compact dump of a result tree with its "timing",
/// "threads" and "fleet" members removed: the part of a result that the
/// determinism contract says must not change with threads, sharding or
/// wall time.
[[nodiscard]] std::string digest(const htpb::json::Value& result);

/// Structural check of a result tree: the scenario name is the one run,
/// and no leaf is null (json::dump writes NaN and infinities as null).
/// Returns an empty string when the tree passes, else the reason.
[[nodiscard]] std::string check_result(const Inputs& in,
                                       const htpb::json::Value& result);

/// Largest Q in an attack-effect tree ("mixes"[].rows[].q), if any.
[[nodiscard]] std::optional<double> q_peak(const htpb::json::Value& result);

/// The paper's Fig. 5 peak (mix-4 at infection 0.9).
inline constexpr double kPaperQPeak = 6.89;

/// Checked-in result digests: digest_key -> seed_key -> digest.
class DigestBook {
 public:
  explicit DigestBook(std::string path);

  [[nodiscard]] std::optional<std::string> expected(
      const std::string& digest_key, const std::string& seed_key) const;
  void set(const std::string& digest_key, const std::string& seed_key,
           const std::string& digest);
  void save() const;

 private:
  std::string path_;
  htpb::json::Value doc_;
};

[[nodiscard]] std::string default_digest_path();

/// The largest chip a resolved spec builds, with the applications its
/// first mix maps onto it and the spec's epoch split.
struct Chip {
  htpb::system::SystemConfig cfg;
  std::vector<htpb::workload::Application> apps;
  int warmup_epochs = 0;
  int measure_epochs = 0;
};

[[nodiscard]] Chip largest_chip(const htpb::scenario::ScenarioSpec& resolved);

/// Per-layer metrics whose values are counts of simulated work or model
/// statistics: for a fixed seed they repeat exactly, and a change that
/// only makes the simulator faster must leave them identical.
[[nodiscard]] bool is_count_metric(std::string_view name);

}  // namespace scenbench
