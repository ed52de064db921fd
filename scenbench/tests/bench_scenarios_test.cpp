// Self-test of the scenario benchmark, driving the real binary in --smoke
// mode (quick overlays plus a smaller patch, one rep, one thread):
//  - every metric BENCHMARK.json names is printed with its unit and is in
//    the last-line JSON, for every workload and both trace modes;
//  - spans are well formed: each child lies inside its parent, and self
//    time is never negative;
//  - count metrics are equal across two traced smoke runs (made side by
//    side, which keeps the whole test near five seconds);
//  - a tampered digest makes every rep fail (failed_frac 1, exit 1);
//  - an unknown workload is a usage error (exit 2).
#include <cstdio>
#include <filesystem>
#include <future>
#include <map>
#include <string>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/json.hpp"
#include "common/subprocess.hpp"
#include "workloads.hpp"

namespace {

namespace hj = htpb::json;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    ++g_failures;
  }
}

const std::string kDir = std::string(SCENBENCH_BUILD_DIR) + "/test";

struct Run {
  int exit_code = -1;
  std::vector<std::string> lines;
  hj::Value last;
};

Run run_bench(std::vector<std::string> args, const std::string& tag) {
  args.insert(args.begin(), SCENBENCH_BIN);
  htpb::common::SubprocessOptions opts;
  opts.stdout_path = kDir + "/" + tag + ".out";
  opts.stderr_path = kDir + "/" + tag + ".err";
  opts.timeout_seconds = 60.0;
  Run run;
  run.exit_code = htpb::common::run_subprocess(args, opts).exit_code;
  const std::string text = htpb::common::read_file(opts.stdout_path);
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::size_t end = nl == std::string::npos ? text.size() : nl;
    run.lines.push_back(text.substr(pos, end - pos));
    pos = end + 1;
  }
  if (!run.lines.empty() && !run.lines.back().empty() &&
      run.lines.back()[0] == '{') {
    run.last = hj::parse(run.lines.back());
  }
  return run;
}

/// name -> unit for one section of BENCHMARK.json.
std::map<std::string, std::string> declared(const hj::Value& benchmark,
                                            const char* section) {
  std::map<std::string, std::string> out;
  for (const hj::Value& m : benchmark.as_object().find(section)->as_array()) {
    out[m.as_object().find("name")->as_string()] =
        m.as_object().find("unit")->as_string();
  }
  return out;
}

bool printed(const Run& run, const std::string& name, const std::string& unit) {
  for (const std::string& line : run.lines) {
    const std::size_t start = line.find_first_not_of(' ');
    if (start == std::string::npos) continue;
    if (line.compare(start, name.size() + 1, name + " ") == 0 &&
        line.size() >= unit.size() + 1 &&
        line.compare(line.size() - unit.size() - 1, unit.size() + 1,
                     " " + unit) == 0) {
      return true;
    }
  }
  return false;
}

void check_metrics(const Run& run,
                   const std::map<std::string, std::string>& want,
                   const std::string& tag) {
  check(run.exit_code == 0, tag + ": exit 0");
  check(run.last.is_object(), tag + ": last line is JSON");
  if (!run.last.is_object()) return;
  const hj::Object& last = run.last.as_object();
  check(last.find("correct")->as_bool(), tag + ": correct");
  check(last.find("attempted")->as_int() >= 1, tag + ": attempted >= 1");
  check(last.find("failed")->as_int() == 0, tag + ": failed == 0");
  const hj::Object& metrics = last.find("metrics")->as_object();
  check(metrics.size() == want.size(), tag + ": exactly the declared metrics");
  for (const auto& [name, unit] : want) {
    const hj::Value* m = metrics.find(name);
    check(m != nullptr && m->as_object().find("unit")->as_string() == unit,
          tag + ": " + name + " in the JSON with unit " + unit);
    check(printed(run, name, unit),
          tag + ": " + name + " printed with " + unit);
  }
}

void check_spans(const std::string& path, const std::string& tag) {
  const hj::Value doc = hj::parse_file(path);
  const hj::Array& spans = doc.as_object().find("spans")->as_array();
  check(!spans.empty(), tag + ": spans recorded");
  std::map<long long, long long> child_ns;
  for (const hj::Value& s : spans) {
    const hj::Object& o = s.as_object();
    const long long start = o.find("start_ns")->as_int();
    const long long end = o.find("end_ns")->as_int();
    const long long parent = o.find("parent")->as_int();
    check(end >= start, tag + ": span ends after it starts");
    if (parent >= 0) {
      check(parent < o.find("id")->as_int(), tag + ": parent opened first");
      const hj::Object& p =
          spans[static_cast<std::size_t>(parent)].as_object();
      check(p.find("start_ns")->as_int() <= start &&
                end <= p.find("end_ns")->as_int(),
            tag + ": child inside parent");
      child_ns[parent] += end - start;
    }
  }
  for (const hj::Value& s : spans) {
    const hj::Object& o = s.as_object();
    const long long dur =
        o.find("end_ns")->as_int() - o.find("start_ns")->as_int();
    check(dur - child_ns[o.find("id")->as_int()] >= 0,
          tag + ": self time >= 0");
  }
}

}  // namespace

int main() {
  std::filesystem::create_directories(kDir);
  const hj::Value benchmark =
      hj::parse_file(std::string(SCENBENCH_SOURCE_DIR) + "/../BENCHMARK.json");
  const auto end_to_end = declared(benchmark, "end_to_end");
  const auto per_layer = declared(benchmark, "per_layer");

  const hj::Array& workloads =
      benchmark.as_object().find("workloads")->as_array();
  for (const hj::Value& wv : workloads) {
    const std::string w = wv.as_object().find("name")->as_string();
    const std::vector<std::string> base = {"--workload", w, "--smoke",
                                           "--seconds", "0"};

    std::vector<std::string> untraced = base;
    untraced.insert(untraced.end(), {"--trace", "0"});
    check_metrics(run_bench(untraced, w + "-t0"), end_to_end, w + " --trace 0");

    std::map<std::string, double> first_counts;
    // Two traced runs, side by side; their counts must agree.
    const auto tag_of = [&w](int round) {
      return w + "-t1-" + std::to_string(round);
    };
    std::vector<std::future<Run>> rounds;
    for (int round = 0; round < 2; ++round) {
      std::vector<std::string> traced = base;
      traced.insert(traced.end(), {"--trace", "1", "--trace-out",
                                   kDir + "/" + tag_of(round) + ".json"});
      rounds.push_back(
          std::async(std::launch::async, run_bench, traced, tag_of(round)));
    }
    for (int round = 0; round < 2; ++round) {
      const std::string tag = tag_of(round);
      const Run run = rounds[static_cast<std::size_t>(round)].get();
      check_metrics(run, per_layer, tag);
      if (!run.last.is_object()) continue;
      check_spans(kDir + "/" + tag + ".json", tag);
      const hj::Object& metrics =
          run.last.as_object().find("metrics")->as_object();
      for (const auto& [c, unit] : per_layer) {
        const hj::Value* m = metrics.find(c);
        if (m == nullptr || !scenbench::is_count_metric(c)) continue;
        const double v = m->as_object().find("value")->as_double();
        if (round == 0) {
          first_counts[c] = v;
        } else {
          check(first_counts[c] == v, tag + ": " + c + " repeats exactly");
        }
      }
    }
  }

  // A tampered digest: every rep must fail and the run must exit 1.
  hj::Value digests = hj::parse_file(std::string(SCENBENCH_SOURCE_DIR) +
                                     "/expected_digests.json");
  digests.as_object()["defense-64/smoke"].as_object()["default"] =
      hj::Value("0000000000000000");
  const std::string tampered = kDir + "/tampered_digests.json";
  htpb::common::atomic_write_file(tampered, hj::dump(digests, 2) + "\n");
  const Run bad = run_bench({"--workload", "defense-64", "--smoke",
                             "--seconds", "0", "--trace", "0", "--digests",
                             tampered},
                            "tampered");
  check(bad.exit_code == 1, "tampered digest: exit 1");
  check(bad.last.is_object() &&
            bad.last.as_object().find("failed")->as_int() ==
                bad.last.as_object().find("attempted")->as_int(),
        "tampered digest: every rep failed");
  bool frac_one = false;
  for (const std::string& line : bad.lines) {
    if (line.rfind("details: ", 0) == 0) {
      frac_one = hj::parse(line.substr(9))
                     .as_object()
                     .find("failed_frac")
                     ->as_double() == 1.0;
    }
  }
  check(frac_one, "tampered digest: failed_frac == 1");

  check(run_bench({"--workload", "no-such-workload"}, "unknown").exit_code == 2,
        "unknown workload: exit 2");

  if (g_failures == 0) std::printf("bench_scenarios_test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
