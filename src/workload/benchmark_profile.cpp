#include "workload/benchmark_profile.hpp"

#include <array>
#include <stdexcept>

namespace htpb::workload {

namespace {

// Working sets are per-thread private lines; shared regions are per
// application. The compute-bound group has small working sets (fits L2)
// and low access rates; the memory-bound group has large working sets
// (streams through L2, hitting the 200-cycle memory) and high rates.
const std::vector<BenchmarkProfile>& table() {
  // The apki values are NoC-bound (post-L1-filter) access rates: the
  // address stream operates at cache-line granularity, so spatial reuse
  // within a line is already folded in and these rates correspond to the
  // benchmarks' published L1-miss MPKIs, not raw load/store counts.
  static const std::vector<BenchmarkProfile> kTable = {
      // name, suite, cpi_base, apki, ws_lines, shared_lines, shared%, write%
      {"blackscholes", "PARSEC", 0.45, 0.6, 640, 512, 0.04, 0.18},
      {"swaptions", "PARSEC", 0.50, 0.8, 768, 512, 0.05, 0.20},
      {"freqmine", "PARSEC", 0.55, 1.2, 1536, 1024, 0.08, 0.22},
      {"fluidanimate", "PARSEC", 0.60, 2.0, 2048, 2048, 0.18, 0.25},
      {"vips", "PARSEC", 0.60, 2.5, 4096, 2048, 0.10, 0.28},
      {"ferret", "PARSEC", 0.70, 3.5, 8192, 4096, 0.15, 0.22},
      {"dedup", "PARSEC", 0.75, 4.5, 16384, 8192, 0.20, 0.30},
      {"streamcluster", "PARSEC", 0.80, 7.0, 32768, 8192, 0.28, 0.15},
      {"canneal", "PARSEC", 0.90, 10.0, 65536, 16384, 0.35, 0.30},
      {"barnes", "SPLASH-2", 0.65, 3.0, 12288, 6144, 0.30, 0.25},
      {"raytrace", "SPLASH-2", 0.85, 8.0, 49152, 12288, 0.22, 0.10},
  };
  return kTable;
}

}  // namespace

std::span<const BenchmarkProfile> benchmark_table() { return table(); }

const BenchmarkProfile& benchmark(std::string_view name) {
  for (const auto& profile : table()) {
    if (profile.name == name) return profile;
  }
  throw std::out_of_range("benchmark: unknown benchmark '" +
                          std::string(name) + "'");
}

}  // namespace htpb::workload
