#include "workload/application.hpp"

#include <stdexcept>

namespace htpb::workload {

const std::vector<Mix>& standard_mixes() {
  // Table III of the paper.
  static const std::vector<Mix> kMixes = {
      {"mix-1", {"barnes", "canneal"}, {"blackscholes", "raytrace"}},
      {"mix-2", {"freqmine", "swaptions"}, {"raytrace", "vips"}},
      {"mix-3", {"canneal"}, {"barnes", "vips", "dedup"}},
      {"mix-4", {"barnes", "streamcluster", "freqmine"}, {"raytrace"}},
  };
  return kMixes;
}

std::vector<Application> instantiate_mix(const Mix& mix, int threads_per_app) {
  if (threads_per_app <= 0) {
    throw std::invalid_argument("instantiate_mix: threads_per_app must be > 0");
  }
  std::vector<Application> apps;
  AppId next = 0;
  for (const auto& name : mix.attackers) {
    Application app;
    app.id = next++;
    app.profile = benchmark(name);
    app.threads = threads_per_app;
    app.role = Role::kAttacker;
    apps.push_back(std::move(app));
  }
  for (const auto& name : mix.victims) {
    Application app;
    app.id = next++;
    app.profile = benchmark(name);
    app.threads = threads_per_app;
    app.role = Role::kVictim;
    apps.push_back(std::move(app));
  }
  return apps;
}

namespace {
int total_threads(const std::vector<Application>& apps) {
  int total = 0;
  for (const auto& app : apps) total += app.threads;
  return total;
}
}  // namespace

void map_threads_round_robin(std::vector<Application>& apps, int node_count) {
  if (total_threads(apps) > node_count) {
    throw std::invalid_argument(
        "map_threads_round_robin: more threads than cores");
  }
  for (auto& app : apps) app.cores.clear();
  // Deal node ids like cards: node i goes to app i % apps until each
  // application has its thread count.
  std::size_t app_idx = 0;
  for (int node = 0; node < node_count; ++node) {
    // Find the next application that still needs a core.
    std::size_t tried = 0;
    while (tried < apps.size() &&
           static_cast<int>(apps[app_idx].cores.size()) >=
               apps[app_idx].threads) {
      app_idx = (app_idx + 1) % apps.size();
      ++tried;
    }
    if (tried == apps.size()) break;  // all applications fully mapped
    apps[app_idx].cores.push_back(static_cast<NodeId>(node));
    app_idx = (app_idx + 1) % apps.size();
  }
}

}  // namespace htpb::workload
