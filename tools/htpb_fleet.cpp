// htpb_fleet -- fault-tolerant campaign service over htpb_run workers.
//
//   htpb_fleet --scenario <name|file.json> --run-dir DIR [options]
//
// Expands the scenario's sweep axes into independent cells
// (scenario/cells.hpp), executes each cell as a crash-isolated htpb_run
// subprocess with per-cell timeout, retry-with-backoff and quarantine of
// corrupt artifacts (core/fleet_scheduler.hpp), and merges the cell
// results into the exact tree a single `htpb_run --json` of the same
// spec would emit -- bit-identical except "timing" and the added "fleet"
// section.
//
// The run directory is resumable: re-invoking the same command after a
// crash or kill skips cells whose status files say done (and whose
// artifacts still parse), re-running only the rest, and removes the
// cells/, results/ and status/ files of ids outside the current plan. A
// run dir holding a DIFFERENT spec (by fingerprint) is refused.
//
// Options:
//   --scenario <arg>      registry name or ScenarioSpec JSON file
//   --run-dir DIR         campaign state directory (created; resumable)
//   --quick               apply the spec's quick overlay
//   --set key=value       dotted-path override (repeatable, after quick)
//   --seed N              reseed the experiment
//   --threads N           ParallelSweepRunner pool of each worker, passed
//                         on its command line (0..4096; 0 = the worker's
//                         default); not part of the spec, so a run dir
//                         resumes under any --threads
//   --shards N            concurrent worker subprocesses (default 2)
//   --max-attempts N      tries per cell, first included (default 3)
//   --timeout S           per-cell wall clock; SIGTERM then SIGKILL (0 = off)
//   --term-grace S        TERM -> KILL escalation grace (default 2)
//   --backoff S           retry backoff base seconds (default 0.05)
//                         (every S above: finite and >= 0)
//   --backoff-seed N      jitter stream seed (default 1)
//   --htpb-run PATH       worker binary (default: htpb_run next to this
//                         binary; env HTPB_RUN overrides the default)
//   --merged PATH         merged output (default <run-dir>/merged.json)
//   --no-resume           ignore existing statuses, re-run every cell
//   --list-cells          print the cell plan and exit
//
// Exit status: 0 = every cell done, 1 = failures (merged tree is still
// written, with the failures listed under "fleet"), 2 = usage.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "cli_number.hpp"
#include "cli_scenario.hpp"
#include "common/json.hpp"
#include "core/fleet_scheduler.hpp"
#include "core/parallel_sweep.hpp"
#include "core/run_dir.hpp"
#include "scenario/cells.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace {

using htpb::json::Value;
using htpb::scenario::RunOptions;
using htpb::scenario::ScenarioSpec;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --scenario <name|file.json> --run-dir DIR\n"
               "           [--quick] [--set key=value ...] [--seed N]"
               " [--threads N]\n"
               "           [--shards N] [--max-attempts N] [--timeout S]"
               " [--term-grace S]\n"
               "           [--backoff S] [--backoff-seed N]"
               " [--htpb-run PATH]\n"
               "           [--merged PATH] [--no-resume] [--list-cells]\n",
               argv0);
  return 2;
}

/// The worker binary: --htpb-run flag, else $HTPB_RUN, else htpb_run in
/// this binary's own directory (the tools are built side by side).
std::string find_htpb_run(const std::string& flag_value) {
  if (!flag_value.empty()) return flag_value;
  if (const char* env = std::getenv("HTPB_RUN")) {
    if (*env != '\0') return env;
  }
  char self[4096];
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (n > 0) {
    self[n] = '\0';
    std::string dir(self);
    const std::size_t slash = dir.rfind('/');
    if (slash != std::string::npos) {
      return dir.substr(0, slash) + "/htpb_run";
    }
  }
  return "htpb_run";  // last resort: PATH lookup in execvp
}

double now_seconds() {
  using clock = std::chrono::steady_clock;
  // htpb-lint: allow(nondet-call) campaign duration for progress logging only
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_arg;
  std::string run_dir_path;
  std::string htpb_run_flag;
  std::string merged_path;
  std::vector<std::string> sets;
  bool quick = false;
  bool list_cells = false;
  htpb::core::FleetConfig fleet;
  RunOptions opts;

  const auto next_arg = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: %s needs an argument\n", argv[0], flag);
      std::exit(2);
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--scenario") == 0) {
      scenario_arg = next_arg(i, arg);
    } else if (std::strcmp(arg, "--run-dir") == 0) {
      run_dir_path = next_arg(i, arg);
    } else if (std::strcmp(arg, "--set") == 0) {
      sets.emplace_back(next_arg(i, arg));
    } else if (std::strcmp(arg, "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(arg, "--seed") == 0) {
      opts.seed = htpb::cli::parse_uint(next_arg(i, arg), argv[0], arg);
    } else if (std::strcmp(arg, "--threads") == 0) {
      opts.threads = htpb::cli::parse_int(
          next_arg(i, arg), argv[0], arg,
          htpb::core::ParallelSweepRunner::kMaxThreads);
    } else if (std::strcmp(arg, "--shards") == 0) {
      fleet.shards = htpb::cli::parse_int(next_arg(i, arg), argv[0], arg);
    } else if (std::strcmp(arg, "--max-attempts") == 0) {
      fleet.max_attempts =
          htpb::cli::parse_int(next_arg(i, arg), argv[0], arg);
    } else if (std::strcmp(arg, "--timeout") == 0) {
      fleet.timeout_seconds =
          htpb::cli::parse_double(next_arg(i, arg), argv[0], arg);
    } else if (std::strcmp(arg, "--term-grace") == 0) {
      fleet.term_grace_seconds =
          htpb::cli::parse_double(next_arg(i, arg), argv[0], arg);
    } else if (std::strcmp(arg, "--backoff") == 0) {
      fleet.backoff_base_seconds =
          htpb::cli::parse_double(next_arg(i, arg), argv[0], arg);
    } else if (std::strcmp(arg, "--backoff-seed") == 0) {
      fleet.backoff_seed =
          htpb::cli::parse_uint(next_arg(i, arg), argv[0], arg);
    } else if (std::strcmp(arg, "--htpb-run") == 0) {
      htpb_run_flag = next_arg(i, arg);
    } else if (std::strcmp(arg, "--merged") == 0) {
      merged_path = next_arg(i, arg);
    } else if (std::strcmp(arg, "--no-resume") == 0) {
      fleet.resume = false;
    } else if (std::strcmp(arg, "--list-cells") == 0) {
      list_cells = true;
    } else if (std::strcmp(arg, "--help") == 0 ||
               std::strcmp(arg, "-h") == 0) {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "%s: unknown argument \"%s\"\n", argv[0], arg);
      return usage(argv[0]);
    }
  }

  try {
    if (scenario_arg.empty()) return usage(argv[0]);

    const ScenarioSpec spec =
        htpb::cli::load_cli_spec(scenario_arg, quick, sets, argv[0]);
    opts.quick = quick;

    const ScenarioSpec resolved = htpb::scenario::resolve(spec, opts);
    const std::vector<htpb::scenario::CellPlan> plan =
        htpb::scenario::expand_cells(resolved);

    if (list_cells) {
      for (const auto& cell : plan) {
        std::printf("%s\n", cell.id.c_str());
      }
      std::fprintf(stderr, "%zu cells for scenario \"%s\"\n", plan.size(),
                   resolved.name.c_str());
      return 0;
    }
    if (run_dir_path.empty()) return usage(argv[0]);

    const double t0 = now_seconds();
    const Value resolved_json = resolved.to_json();
    const std::string spec_fingerprint =
        htpb::core::fingerprint(htpb::json::dump(resolved_json, 2));

    std::vector<htpb::core::FleetCell> cells;
    cells.reserve(plan.size());
    for (const auto& cell : plan) {
      cells.push_back(htpb::core::FleetCell{
          cell.id, htpb::json::dump(cell.spec.to_json(), 2) + "\n"});
    }

    const std::string run_binary = find_htpb_run(htpb_run_flag);
    fleet.run_dir = run_dir_path;
    // The pool size is an execution option, not part of a cell's spec:
    // each worker gets it on its command line.
    fleet.worker_command = [&run_binary, &opts](
                               const std::string& spec_path,
                               const std::string& result_path) {
      std::vector<std::string> cmd{run_binary, "--scenario", spec_path,
                                   "--json", result_path};
      if (opts.threads > 0) {
        cmd.insert(cmd.end(), {"--threads", std::to_string(opts.threads)});
      }
      return cmd;
    };
    fleet.log = [](const std::string& line) {
      std::fprintf(stderr, "htpb_fleet: %s\n", line.c_str());
    };

    htpb::core::FleetScheduler scheduler(fleet);
    scheduler.run_dir().ensure_layout();
    htpb::json::dump_file(resolved_json, scheduler.run_dir().spec_path());
    const htpb::core::FleetReport report =
        scheduler.run(resolved.name, spec_fingerprint, cells);

    // Collect the cell envelopes in plan order; failed cells become null
    // and merge_cell_results leaves holes where their slices would be.
    std::vector<Value> results(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
      if (report.cells[i].done) {
        results[i] = htpb::json::parse_file(
            scheduler.run_dir().result_path(plan[i].id));
      }
    }

    Value merged = htpb::scenario::merge_cell_results(resolved, quick,
                                                      opts.threads, results);

    htpb::json::Object fleet_out;
    fleet_out["cells"] = Value(static_cast<long long>(plan.size()));
    fleet_out["done"] = Value(report.done);
    fleet_out["resumed"] = Value(report.resumed);
    fleet_out["failed"] = Value(report.failed);
    fleet_out["attempts"] = Value(report.attempts);
    fleet_out["shards"] = Value(fleet.shards);
    fleet_out["max_attempts"] = Value(fleet.max_attempts);
    htpb::json::Array failures;
    for (const auto& outcome : report.cells) {
      if (outcome.done) continue;
      htpb::json::Object f;
      f["id"] = Value(outcome.id);
      f["reason"] = Value(outcome.fail_reason);
      f["attempts"] = Value(outcome.attempts);
      f["stderr"] = Value(outcome.last_error);
      failures.push_back(Value(std::move(f)));
    }
    fleet_out["failures"] = Value(std::move(failures));
    merged.as_object()["fleet"] = Value(std::move(fleet_out));

    htpb::json::Object timing;
    timing["seconds"] = Value(now_seconds() - t0);
    merged.as_object()["timing"] = Value(std::move(timing));

    const std::string out_path =
        merged_path.empty() ? scheduler.run_dir().merged_path() : merged_path;
    htpb::json::dump_file(merged, out_path);

    std::fprintf(stderr,
                 "htpb_fleet: %d/%zu cells done (%d resumed, %d failed,"
                 " %d attempts); merged -> %s\n",
                 report.done, plan.size(), report.resumed, report.failed,
                 report.attempts, out_path.c_str());
    return report.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 1;
  }
}
