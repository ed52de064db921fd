// A running multi-threaded application: a benchmark profile plus a thread
// count, a role (attacker or victim) and, once mapped, the set of cores
// running its threads (the paper's C_k).
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "workload/benchmark_profile.hpp"

namespace htpb::workload {

enum class Role { kVictim, kAttacker };

struct Application {
  AppId id = kInvalidApp;
  BenchmarkProfile profile;
  int threads = 0;
  Role role = Role::kVictim;
  /// Cores running this application's threads (paper's C_k); filled in by
  /// the thread mapper.
  std::vector<NodeId> cores;

  [[nodiscard]] bool is_attacker() const noexcept {
    return role == Role::kAttacker;
  }
};

/// A benchmark combination from Table III.
struct Mix {
  std::string name;
  std::vector<std::string> attackers;
  std::vector<std::string> victims;

  [[nodiscard]] int app_count() const noexcept {
    return static_cast<int>(attackers.size() + victims.size());
  }

  friend bool operator==(const Mix&, const Mix&) = default;
};

/// The four combinations of Table III (mix-1 .. mix-4).
[[nodiscard]] const std::vector<Mix>& standard_mixes();

/// Instantiates a mix: attackers first, then victims, each with
/// `threads_per_app` threads. AppIds are assigned in order.
[[nodiscard]] std::vector<Application> instantiate_mix(const Mix& mix,
                                                       int threads_per_app);

/// Maps application threads onto a chip with `node_count` cores.
/// Round-robin interleaving (app of node i = i % apps) keeps every
/// application geometrically spread across the die, so the infection rate
/// seen by each application is uniform -- the paper's Figs. 5-6 setting
/// (4 apps x 64 threads on 256 cores). Throws if the mix needs more cores
/// than exist.
void map_threads_round_robin(std::vector<Application>& apps, int node_count);

}  // namespace htpb::workload
