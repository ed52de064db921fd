// Synthetic profiles of the PARSEC / SPLASH-2 benchmarks in Table II.
//
// We cannot execute the real binaries (no Alpha ISA toolchain or traces),
// so each benchmark is characterized by the parameters that matter to the
// attack study: its core-bound CPI, its NoC-bound access rate, its working
// set (which drives the L2 hit rate and hence memory latency), and its
// sharing/write behaviour (which drives coherence traffic). The values
// are chosen to match the standard qualitative characterization of these
// suites: blackscholes/swaptions/freqmine are compute-bound (high power
// sensitivity Phi, paper Def. 5), canneal/raytrace/streamcluster are
// memory-bound (low Phi). DESIGN.md section 3 documents this substitution.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace htpb::workload {

struct BenchmarkProfile {
  std::string name;
  /// Suite the benchmark belongs to ("PARSEC" or "SPLASH-2", Table II).
  std::string suite;
  /// Cycles per instruction excluding memory stalls.
  double cpi_base = 0.6;
  /// NoC-bound L1 accesses per kilo-instruction fed to the L1 (a
  /// subsampled stream; the L1 decides which of them miss).
  double apki = 40.0;
  /// Private working set in cache lines per thread.
  std::uint64_t working_set_lines = 4096;
  /// Lines in the application-wide shared region.
  std::uint64_t shared_lines = 2048;
  /// Fraction of accesses that target the shared region.
  double shared_fraction = 0.1;
  /// Fraction of accesses that are writes.
  double write_fraction = 0.2;
};

/// All Table II benchmarks (PARSEC: streamcluster, swaptions, ferret,
/// fluidanimate, blackscholes, freqmine, dedup, canneal, vips; SPLASH-2:
/// barnes, raytrace).
[[nodiscard]] std::span<const BenchmarkProfile> benchmark_table();

/// Lookup by name; throws std::out_of_range for unknown benchmarks.
[[nodiscard]] const BenchmarkProfile& benchmark(std::string_view name);

}  // namespace htpb::workload
