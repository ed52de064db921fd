// bench_scenarios -- end-to-end scenario benchmark with per-layer probes,
// output digests and a traced run.
//
//   bench_scenarios --workload W [--seed N] [--seconds S] [--trace 0|1]
//                   [--trace-out FILE] [--smoke] [--digests FILE]
//   bench_scenarios --all [--seed N] [--seconds S] [--runs N] [--smoke]
//                   --out FILE
//   bench_scenarios --compare A.json B.json
//   bench_scenarios --write-digests
//   bench_scenarios --setup-only --workload W [--seed N] [--smoke]
//
// One run of a workload is one closed-loop client: it issues one scenario
// run at a time (scenario::run_scenario with threads = 2, or a
// FleetScheduler campaign of two `htpb_run --threads 1` workers for the
// fleet workload), times it from outside, and repeats until --seconds
// have been spent. Before timing it launches `--setup-only` fifteen times
// and times each launch from spawn to exit, then makes one untimed
// warm-up call.
//
// Every result is checked: the tree must name its scenario and hold no
// NaN, every rep must give the same digest (FNV-1a-64 of the tree without
// "timing", "threads" and "fleet"), that digest must equal the one in
// expected_digests.json when the seed is recorded there, and a fleet
// campaign must reproduce the in-process result.
//
// --trace 0 prints the end-to-end metrics (wall_s, setup_s,
// peak_rss_mb); --trace 1 alternates untraced and traced reps, runs the
// per-layer probes (probes.hpp) and prints the per-layer metrics, the
// self time per span name, and writes the spans to --trace-out (default
// trace-<workload>.json in the build directory). The last line of
// standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
// --all re-executes this binary once per workload and trace mode (--runs
// times), so peak RSS and set-up are measured per workload, prints each
// metric's median and spread, and writes every run to --out.
// --smoke applies each workload's quick overlay plus a smaller patch and
// runs one rep (two when traced) on one thread: the self-test mode.
//
// Exit status: 0 = outputs correct, 1 = a check failed, 2 = usage.
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/json.hpp"
#include "common/subprocess.hpp"
#include "compare.hpp"
#include "core/campaign.hpp"
#include "probes.hpp"
#include "scenario/runner.hpp"
#include "stats.hpp"
#include "system/manycore_system.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace {

namespace hj = htpb::json;
using htpb::core::AttackCampaign;
using scenbench::Inputs;
using scenbench::Summary;
using scenbench::Tracer;
using scenbench::Workload;
using Scope = scenbench::Tracer::Scope;

/// Set-up launches per run; set-up time is their median.
constexpr int kSetupLaunches = 15;
/// Seed never used while the workloads were chosen; --write-digests
/// records it beside each workload's default seed.
constexpr std::uint64_t kHeldOutSeed = 2026;

struct Options {
  std::string mode = "run";
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = 20.0;  // BENCHMARK.json run_seconds
  bool trace = false;
  bool smoke = false;
  int runs = 1;
  std::string trace_out;
  std::string digests = scenbench::default_digest_path();
  std::string out;
  std::vector<std::string> compare;
};

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --workload W [--seed N] [--seconds S] [--trace 0|1]\n"
      "           [--trace-out FILE] [--smoke] [--digests FILE]\n"
      "       %s --all [--seed N] [--seconds S] [--runs N] [--smoke]"
      " --out FILE\n"
      "       %s --compare A.json B.json\n"
      "       %s --write-digests\n"
      "       %s --setup-only --workload W [--seed N] [--smoke]\n",
      argv0, argv0, argv0, argv0, argv0);
  return 2;
}

[[noreturn]] void bad_value(const char* flag, const char* text,
                            const char* want) {
  std::fprintf(stderr, "bench_scenarios: %s expects %s, got \"%s\"\n", flag,
               want, text);
  std::exit(2);
}

std::uint64_t parse_uint(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    bad_value(flag, text, "a non-negative integer");
  }
  return v;
}

double parse_seconds(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (errno != 0 || end == text || *end != '\0' || !(v >= 0.0) ||
      v > 3600.0) {
    bad_value(flag, text, "seconds in [0, 3600]");
  }
  return v;
}

std::string self_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  return std::string(buf, static_cast<std::size_t>(n));
}

std::string build_dir() { return SCENBENCH_BUILD_DIR; }

/// Seconds from spawn to exit of `argv` with its stdout discarded, or a
/// negative value when it fails. A blocking wait, not run_subprocess's
/// 5 ms polling, because set-up takes only tens of milliseconds.
double timed_launch(const std::vector<std::string>& argv) {
  std::vector<char*> cargv;
  for (const std::string& a : argv) {
    cargv.push_back(const_cast<char*>(a.c_str()));
  }
  cargv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  const std::int64_t t0 = scenbench::now_ns();
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, cargv[0], &actions, nullptr, cargv.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) return -1.0;
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1.0;
  }
  const double seconds = static_cast<double>(scenbench::now_ns() - t0) / 1e9;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? seconds : -1.0;
}

/// What `--setup-only` does after make_inputs (which builds the
/// registry): resolve and validate the spec, load the digests, and build
/// and tear down the workload's largest chip once, cold.
scenbench::Chip setup(const Inputs& in, const std::string& digests,
                      htpb::scenario::ScenarioSpec* resolved_out = nullptr) {
  htpb::scenario::ScenarioSpec resolved =
      htpb::scenario::resolve(in.spec, in.opts);
  (void)scenbench::DigestBook(digests).expected(in.digest_key, in.seed_key);
  scenbench::Chip chip = scenbench::largest_chip(resolved);
  { const htpb::system::ManyCoreSystem sys(chip.cfg, chip.apps); }
  if (resolved_out != nullptr) *resolved_out = std::move(resolved);
  return chip;
}

double peak_rss_mb(bool with_children) {
  rusage self{};
  ::getrusage(RUSAGE_SELF, &self);
  long kb = self.ru_maxrss;
  if (with_children) {
    rusage children{};
    ::getrusage(RUSAGE_CHILDREN, &children);
    kb = std::max(kb, children.ru_maxrss);
  }
  return static_cast<double>(kb) / 1024.0;
}

/// Metrics as printed lines and as the "metrics" object of the last line.
class Metrics {
 public:
  void add(const char* name, double value, const char* unit) {
    std::printf("  %-26s %14.6g %s\n", name, value, unit);
    hj::Object m;
    m["value"] = hj::Value(value);
    m["unit"] = hj::Value(unit);
    obj_[name] = hj::Value(std::move(m));
  }
  [[nodiscard]] hj::Value take() { return hj::Value(std::move(obj_)); }

 private:
  hj::Object obj_;
};

hj::Value summary_json(const Summary& s) {
  hj::Object o;
  o["n"] = hj::Value(static_cast<long long>(s.n));
  o["median"] = hj::Value(s.median);
  o["q1"] = hj::Value(s.q1);
  o["q3"] = hj::Value(s.q3);
  o["min"] = hj::Value(s.min);
  o["max"] = hj::Value(s.max);
  return hj::Value(std::move(o));
}

hj::Value doubles_json(const std::vector<double>& v) {
  hj::Array a;
  for (const double x : v) a.push_back(hj::Value(x));
  return hj::Value(std::move(a));
}

double median(const std::vector<double>& v) {
  return scenbench::summarize(v).median;
}

int run_workload(const Workload& w, const Options& o) {
  const int threads = o.smoke ? 1 : 2;
  const Inputs in = scenbench::make_inputs(w, o.seed, o.smoke, threads);
  const std::string self = self_path();
  const std::string run_dir = build_dir() + "/runs/" + std::string(w.name) +
                              "-" + std::to_string(::getpid());
  std::vector<std::string> failures;  // checks outside the timed reps
  std::printf("== bench_scenarios %s (%s%s, seed %s, %d thread%s, %s)\n",
              std::string(w.name).c_str(), std::string(w.scenario).c_str(),
              o.smoke ? " smoke" : (w.quick ? " quick" : ""),
              in.seed_key.c_str(), threads, threads == 1 ? "" : "s",
              o.trace ? "traced" : "untraced");

  // Set-up time: separate launches, timed from spawn to exit.
  std::vector<std::string> setup_argv = {self, "--setup-only", "--workload",
                                         std::string(w.name), "--digests",
                                         o.digests};
  if (o.seed.has_value()) {
    setup_argv.insert(setup_argv.end(), {"--seed", in.seed_key});
  }
  if (o.smoke) setup_argv.emplace_back("--smoke");
  std::vector<double> setup_s;
  std::fflush(stdout);
  for (int i = 0; i < (o.smoke ? 1 : kSetupLaunches); ++i) {
    const double s = timed_launch(setup_argv);
    if (s < 0.0) failures.push_back("--setup-only launch failed");
    setup_s.push_back(s);
  }

  htpb::scenario::ScenarioSpec resolved;
  const scenbench::Chip chip = setup(in, o.digests, &resolved);
  const std::optional<std::string> expected =
      scenbench::DigestBook(o.digests).expected(in.digest_key, in.seed_key);

  // The digest every rep must reproduce: the fleet's merged tree must
  // equal an in-process run; in-process reps must equal each other.
  std::string reference;
  std::uint64_t systems = 0;
  std::uint64_t warmup_epochs = 0;
  const auto count_run = [&](auto&& body) {
    const std::uint64_t s0 = AttackCampaign::systems_simulated();
    const std::uint64_t w0 = AttackCampaign::warmup_epochs_simulated();
    body();
    const std::uint64_t ds = AttackCampaign::systems_simulated() - s0;
    const std::uint64_t dw = AttackCampaign::warmup_epochs_simulated() - w0;
    if (systems != 0 && (ds != systems || dw != warmup_epochs)) {
      failures.push_back("simulation counts did not repeat exactly");
    }
    systems = ds;
    warmup_epochs = dw;
  };
  if (w.fleet) {
    count_run([&] {
      reference = scenbench::digest(htpb::scenario::run_scenario(in.spec,
                                                                 in.opts));
    });
  }

  Tracer tracer{std::string(w.name)};
  std::vector<scenbench::FleetRun> fleet_runs;
  std::optional<double> q_peak;
  // One call of the workload's timed path: its seconds, and why it
  // failed (empty when the call returned and its result checks out).
  const auto one_rep = [&](double& seconds) -> std::string {
    std::string reason;
    hj::Value result;
    try {
      if (w.fleet) {
        scenbench::FleetRun fr = scenbench::run_fleet(in, run_dir, tracer);
        seconds = fr.wall_ms / 1000.0;
        result = std::move(fr.merged);
        if (fr.report.failed > 0) {
          reason = std::to_string(fr.report.failed) + " fleet cells failed";
        }
        fleet_runs.push_back(std::move(fr));
      } else {
        count_run([&] {
          Scope s(tracer, "scenario.run");
          result = htpb::scenario::run_scenario(in.spec, in.opts);
          seconds = s.stop() / 1000.0;
        });
      }
    } catch (const std::exception& e) {
      return e.what();
    }
    if (reason.empty()) reason = scenbench::check_result(in, result);
    if (!reason.empty()) return reason;
    const std::string d = scenbench::digest(result);
    if (expected.has_value() && d != *expected) {
      return "digest " + d + " differs from expected_digests.json";
    }
    if (!reference.empty() && d != reference) {
      return "digest " + d + " differs from " +
             (w.fleet ? "the in-process run" : "the warm-up run");
    }
    reference = d;
    if (!q_peak.has_value()) q_peak = scenbench::q_peak(result);
    return "";
  };

  // Warm-up: one untimed call lets caches fill and lazy set-up finish
  // before timing, and gives in-process workloads their reference digest.
  if (!o.smoke) {
    double ignored = 0.0;
    const std::string reason = one_rep(ignored);
    if (!reason.empty()) failures.push_back("warm-up: " + reason);
    fleet_runs.clear();
  }

  std::vector<double> rep_s;     // untraced reps
  std::vector<double> traced_s;  // traced reps (--trace 1)
  int attempted = 0;
  int failed = 0;
  // A traced run alternates untraced and traced reps: at least one each.
  const int min_reps = o.trace ? 2 : 1;
  const std::int64_t t_start = scenbench::now_ns();
  for (;;) {
    const bool traced = o.trace && attempted % 2 == 1;
    tracer.set_enabled(traced);
    double seconds = 0.0;
    const std::string reason = one_rep(seconds);
    ++attempted;
    if (!reason.empty()) {
      ++failed;
      std::fprintf(stderr, "bench_scenarios: rep %d failed: %s\n", attempted,
                   reason.c_str());
    }
    (traced ? traced_s : rep_s).push_back(seconds);
    const double elapsed =
        static_cast<double>(scenbench::now_ns() - t_start) / 1e9;
    if (attempted >= min_reps &&
        (o.smoke || elapsed + seconds > o.seconds)) {
      break;
    }
  }
  tracer.set_enabled(o.trace);

  Metrics metrics;
  if (!o.trace) {
    metrics.add("wall_s", median(rep_s), "s");
    metrics.add("setup_s", median(setup_s), "s");
    metrics.add("peak_rss_mb", peak_rss_mb(w.fleet), "MB");
  } else {
    const double fork_base =
        static_cast<double>(systems) * resolved.epochs.warmup;
    metrics.add("core.systems", static_cast<double>(systems), "count");
    metrics.add("core.warmup_epochs", static_cast<double>(warmup_epochs),
                "count");
    metrics.add("core.fork_saved_frac",
                fork_base > 0.0
                    ? 1.0 - static_cast<double>(warmup_epochs) / fork_base
                    : 0.0,
                "frac");
    metrics.add("core.ms_per_system",
                systems > 0 ? median(rep_s) * 1000.0 /
                                  static_cast<double>(systems)
                            : 0.0,
                "ms");

    const scenbench::LegProbe leg = scenbench::probe_leg(chip, tracer);
    metrics.add("system.build_ms", leg.build_ms, "ms");
    metrics.add("system.teardown_ms", leg.teardown_ms, "ms");
    metrics.add("system.epoch_ms", leg.epoch_ms, "ms");
    metrics.add("system.ns_per_cycle", leg.ns_per_cycle, "ns");
    metrics.add("system.save_ms", leg.save_ms, "ms");
    metrics.add("system.load_ms", leg.load_ms, "ms");
    metrics.add("system.snapshot_mb", leg.snapshot_mb, "MB");
    metrics.add("common.dump_ms", leg.dump_ms, "ms");
    metrics.add("common.parse_ms", leg.parse_ms, "ms");
    metrics.add("noc.flits_per_cycle", leg.flits_per_cycle, "flit/cycle");
    metrics.add("noc.sa_stalls_per_kflit", leg.sa_stalls_per_kflit,
                "1/kflit");
    metrics.add("noc.ns_per_flit",
                scenbench::probe_noc_kernel(chip, leg.packets_per_node_cycle,
                                            resolved.seed, tracer),
                "ns");
    metrics.add("mem.l1_miss_rate", leg.l1_miss_rate, "frac");
    metrics.add("mem.l2_fetches_per_kcycle", leg.l2_fetches_per_kcycle,
                "1/kcycle");
    metrics.add("cpu.ipc", leg.ipc, "instr/cycle");
    metrics.add("power.requests_per_epoch", leg.requests_per_epoch, "count");

    // The fleet path: the timed reps for the fleet workload, one probe
    // campaign (which must reproduce the in-process digest) otherwise.
    if (!w.fleet) {
      try {
        scenbench::FleetRun probe = scenbench::run_fleet(in, run_dir, tracer);
        if (probe.report.failed > 0 ||
            scenbench::digest(probe.merged) != reference) {
          failures.push_back("fleet probe did not reproduce the result");
        }
        fleet_runs.push_back(std::move(probe));
      } catch (const std::exception& e) {
        failures.push_back(std::string("fleet probe: ") + e.what());
      }
    }
    std::vector<double> resolve_ms, expand_ms, merge_ms, write_ms, overhead;
    for (const scenbench::FleetRun& fr : fleet_runs) {
      resolve_ms.push_back(fr.resolve_ms);
      expand_ms.push_back(fr.expand_ms);
      merge_ms.push_back(fr.merge_ms);
      write_ms.push_back(fr.atomic_write_ms);
      overhead.push_back(1.0 - fr.cell_seconds / scenbench::kFleetShards /
                                   (fr.wall_ms / 1000.0));
    }
    metrics.add("scenario.resolve_ms", median(resolve_ms), "ms");
    metrics.add("scenario.expand_ms", median(expand_ms), "ms");
    metrics.add("scenario.merge_ms", median(merge_ms), "ms");
    metrics.add("common.atomic_write_ms", median(write_ms), "ms");
    metrics.add("fleet.cells",
                fleet_runs.empty() ? 0.0 : fleet_runs.front().cells, "count");
    metrics.add("fleet.attempts",
                fleet_runs.empty() ? 0.0 : fleet_runs.front().report.attempts,
                "count");
    metrics.add("fleet.worker_start_ms",
                scenbench::worker_start_ms(o.smoke ? 1 : 5), "ms");
    metrics.add("fleet.overhead_frac", median(overhead), "frac");
    metrics.add("trace.overhead_frac", median(traced_s) / median(rep_s) - 1.0,
                "frac");

    std::printf("  self time per span (ms):\n");
    std::vector<std::pair<double, std::string>> by_self;
    for (const auto& [name, ms] : tracer.self_ms()) {
      by_self.emplace_back(ms, name);
    }
    std::sort(by_self.rbegin(), by_self.rend());
    for (const auto& [ms, name] : by_self) {
      std::printf("    %-22s %12.3f\n", name.c_str(), ms);
    }
    const std::string trace_path =
        o.trace_out.empty()
            ? build_dir() + "/trace-" + std::string(w.name) + ".json"
            : o.trace_out;
    htpb::common::atomic_write_file(trace_path,
                                    hj::dump(tracer.to_json(), 1) + "\n");
    std::printf("  spans -> %s\n", trace_path.c_str());
  }

  const bool correct = failed == 0 && failures.empty();
  for (const std::string& f : failures) {
    std::fprintf(stderr, "bench_scenarios: check failed: %s\n", f.c_str());
  }
  const double failed_frac =
      static_cast<double>(failed) / static_cast<double>(attempted);
  std::printf("  failed_frac = %g (%d of %d reps)\n", failed_frac, failed,
              attempted);

  hj::Object details;
  details["workload"] = hj::Value(std::string(w.name));
  details["scenario"] = hj::Value(std::string(w.scenario));
  details["seed"] = hj::Value(in.seed_key);
  details["smoke"] = hj::Value(o.smoke);
  details["threads"] = hj::Value(threads);
  details["rep_seconds"] = doubles_json(rep_s);
  details["wall_s"] = summary_json(scenbench::summarize(rep_s));
  details["setup_s"] = doubles_json(setup_s);
  details["failed_frac"] = hj::Value(failed_frac);
  hj::Array failure_list;
  for (const std::string& f : failures) failure_list.push_back(hj::Value(f));
  details["failures"] = hj::Value(std::move(failure_list));
  details["digest"] = hj::Value(reference);
  details["digest_recorded"] = hj::Value(expected.has_value());
  if (q_peak.has_value()) {
    const double err = std::abs(*q_peak - scenbench::kPaperQPeak) /
                       scenbench::kPaperQPeak;
    std::printf("  model check: Q peak %.4g vs the paper's %.2f, relative"
                " error %.4g\n",
                *q_peak, scenbench::kPaperQPeak, err);
    details["q_peak"] = hj::Value(*q_peak);
    details["q_peak_rel_err"] = hj::Value(err);
  }
  std::printf("details: %s\n",
              hj::dump(hj::Value(std::move(details)), 0).c_str());

  hj::Object last;
  last["correct"] = hj::Value(correct);
  last["attempted"] = hj::Value(attempted);
  last["failed"] = hj::Value(failed);
  last["metrics"] = metrics.take();
  std::printf("%s\n", hj::dump(hj::Value(std::move(last)), 0).c_str());
  return correct ? 0 : 1;
}

/// Last line of a child's output and its "details: " line, merged.
hj::Value read_run(const std::string& path) {
  const std::string text = htpb::common::read_file(path);
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::size_t end = nl == std::string::npos ? text.size() : nl;
    if (end > pos) lines.push_back(text.substr(pos, end - pos));
    pos = end + 1;
  }
  if (lines.empty()) throw std::runtime_error(path + ": no output");
  hj::Value run = hj::parse(lines.back());
  for (const std::string& line : lines) {
    if (line.rfind("details: ", 0) == 0) {
      run.as_object()["details"] = hj::parse(line.substr(9));
    }
  }
  return run;
}

int run_all(const Options& o) {
  const std::string self = self_path();
  hj::Object per_workload;
  for (const Workload& w : scenbench::workloads()) {
    hj::Object entry;
    entry["runs"] = hj::Value(hj::Array{});
    entry["traced"] = hj::Value(hj::Array{});
    per_workload[w.name] = hj::Value(std::move(entry));
  }
  bool all_correct = true;
  for (int run = 0; run < o.runs; ++run) {
    for (const Workload& w : scenbench::workloads()) {
      for (const bool trace : {false, true}) {
        const std::string name(w.name);
        std::vector<std::string> argv = {
            self,        "--workload", name, "--seconds",
            std::to_string(o.seconds), "--trace", trace ? "1" : "0",
            "--digests", o.digests};
        if (o.seed.has_value()) {
          argv.insert(argv.end(), {"--seed", std::to_string(*o.seed)});
        }
        if (o.smoke) argv.emplace_back("--smoke");
        if (trace) {
          argv.insert(argv.end(),
                      {"--trace-out",
                       build_dir() + "/trace-" + name + ".json"});
        }
        htpb::common::SubprocessOptions capture;
        capture.stdout_path = build_dir() + "/all-" + name + ".out";
        std::printf("-- set %d/%d: %s --trace %d\n", run + 1, o.runs,
                    name.c_str(), trace ? 1 : 0);
        std::fflush(stdout);
        const auto r = htpb::common::run_subprocess(argv, capture);
        hj::Value result = read_run(capture.stdout_path);
        if (r.exit_code != 0 ||
            !result.as_object().find("correct")->as_bool()) {
          all_correct = false;
        }
        per_workload[name]
            .as_object()[trace ? "traced" : "runs"]
            .as_array()
            .push_back(std::move(result));
      }
    }
  }

  hj::Object doc;
  doc["benchmark"] = hj::Value("bench_scenarios");
  doc["seconds"] = hj::Value(o.seconds);
  doc["seed"] = o.seed.has_value()
                    ? hj::Value(static_cast<long long>(*o.seed))
                    : hj::Value("default");
  doc["smoke"] = hj::Value(o.smoke);
  doc["sets"] = hj::Value(o.runs);
  doc["workloads"] = hj::Value(std::move(per_workload));
  const hj::Value runs(std::move(doc));
  const int problems = scenbench::report_runs(
      runs, scenbench::load_metric_specs(scenbench::default_benchmark_path()));
  htpb::common::atomic_write_file(o.out, hj::dump(runs, 2) + "\n");
  std::printf("wrote %s (%d problem%s)\n", o.out.c_str(), problems,
              problems == 1 ? "" : "s");
  return all_correct ? 0 : 1;
}

/// Records the digest of every workload at the default seed and at the
/// held-out seed 2026, full size and smoke. The fleet workload's digest
/// is the in-process one; its reps check the merged tree against it.
int write_digests(const Options& o) {
  scenbench::DigestBook book(o.digests);
  for (const Workload& w : scenbench::workloads()) {
    for (const bool smoke : {false, true}) {
      for (const std::optional<std::uint64_t> seed :
           {std::optional<std::uint64_t>{},
            std::optional<std::uint64_t>{kHeldOutSeed}}) {
        const Inputs in = scenbench::make_inputs(w, seed, smoke, 2);
        const std::string d = scenbench::digest(
            htpb::scenario::run_scenario(in.spec, in.opts));
        book.set(in.digest_key, in.seed_key, d);
        std::printf("%-22s seed %-8s %s\n", in.digest_key.c_str(),
                    in.seed_key.c_str(), d.c_str());
        std::fflush(stdout);
      }
    }
  }
  book.save();
  std::printf("wrote %s\n", o.digests.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  const auto next_arg = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "bench_scenarios: %s needs an argument\n",
                   argv[i]);
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload") {
      o.workload = next_arg(i);
    } else if (arg == "--seed") {
      o.seed = parse_uint("--seed", next_arg(i));
    } else if (arg == "--seconds") {
      o.seconds = parse_seconds("--seconds", next_arg(i));
    } else if (arg == "--trace") {
      const std::string v = next_arg(i);
      if (v != "0" && v != "1") bad_value("--trace", v.c_str(), "0 or 1");
      o.trace = v == "1";
    } else if (arg == "--trace-out") {
      o.trace_out = next_arg(i);
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--digests") {
      o.digests = next_arg(i);
    } else if (arg == "--runs") {
      const std::uint64_t runs = parse_uint("--runs", next_arg(i));
      if (runs < 1 || runs > 100) {
        bad_value("--runs", argv[i], "an integer in [1, 100]");
      }
      o.runs = static_cast<int>(runs);
    } else if (arg == "--out") {
      o.out = next_arg(i);
    } else if (arg == "--all") {
      o.mode = "all";
    } else if (arg == "--setup-only") {
      o.mode = "setup-only";
    } else if (arg == "--write-digests") {
      o.mode = "write-digests";
    } else if (arg == "--compare") {
      o.mode = "compare";
      o.compare.emplace_back(next_arg(i));
      o.compare.emplace_back(next_arg(i));
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "bench_scenarios: unknown argument \"%s\"\n",
                   arg.c_str());
      return usage(argv[0]);
    }
  }

  try {
    if (o.mode == "compare") {
      return scenbench::compare_runs(
          hj::parse_file(o.compare[0]), hj::parse_file(o.compare[1]),
          scenbench::load_metric_specs(scenbench::default_benchmark_path()));
    }
    if (o.mode == "write-digests") return write_digests(o);
    if (o.mode == "all") {
      if (o.out.empty()) return usage(argv[0]);
      return run_all(o);
    }
    const Workload* w = scenbench::find_workload(o.workload);
    if (w == nullptr) {
      std::fprintf(stderr, "bench_scenarios: unknown workload \"%s\"; known:",
                   o.workload.c_str());
      for (const Workload& known : scenbench::workloads()) {
        std::fprintf(stderr, " %s", std::string(known.name).c_str());
      }
      std::fprintf(stderr, "\n");
      return 2;
    }
    if (o.mode == "setup-only") {
      (void)setup(scenbench::make_inputs(*w, o.seed, o.smoke, 1), o.digests);
      return 0;
    }
    return run_workload(*w, o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_scenarios: %s\n", e.what());
    return 1;
  }
}
