// Fig. 3: infection rate vs number of HTs for 64- and 512-node chips,
// with the global manager at the center vs at one corner. Thin formatter
// over the registry's "fig3" scenario (src/scenario/registry.cpp holds
// the sweep axes; the runner holds the execution).
#include <cstdio>

#include "bench_util.hpp"

int main() {
  using namespace htpb;
  const json::Value result = bench::run_registry_scenario("fig3");

  for (const json::Value& arm : result.as_object().find("arms")->as_array()) {
    const json::Object& a = arm.as_object();
    std::printf("\nsystem size = %lld\n", static_cast<long long>(
                                              a.find("nodes")->as_int()));
    std::printf("%6s | %-10s %-10s | %-10s %-10s\n", "", "GM center", "",
                "GM corner", "");
    std::printf("%6s | %-10s %-10s | %-10s %-10s\n", "#HTs", "simulated",
                "analytic", "simulated", "analytic");
    for (const json::Value& row : a.find("rows")->as_array()) {
      const json::Object& r = row.as_object();
      const json::Array& cells = r.find("cells")->as_array();
      std::printf("%6lld", static_cast<long long>(r.find("hts")->as_int()));
      for (const json::Value& cell : cells) {
        const json::Object& c = cell.as_object();
        std::printf(" | %-10.3f %-10.3f", c.find("simulated")->as_double(),
                    c.find("analytic")->as_double());
      }
      std::printf("\n");
    }
  }
  return 0;
}
