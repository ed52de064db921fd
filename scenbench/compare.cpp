#include "compare.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string_view>
#include <vector>

#include "stats.hpp"
#include "workloads.hpp"

namespace scenbench {

namespace hj = htpb::json;

std::string default_benchmark_path() {
  return std::string(SCENBENCH_SOURCE_DIR) + "/../BENCHMARK.json";
}

std::map<std::string, MetricSpec> load_metric_specs(const std::string& path) {
  const hj::Value doc = hj::parse_file(path);
  std::map<std::string, MetricSpec> specs;
  for (const char* section : {"end_to_end", "per_layer"}) {
    for (const hj::Value& m : doc.as_object().find(section)->as_array()) {
      const hj::Object& o = m.as_object();
      MetricSpec spec;
      spec.unit = o.find("unit")->as_string();
      spec.lower_is_better = o.find("better")->as_string() == "lower";
      spec.end_to_end = std::string_view(section) == "end_to_end";
      if (const hj::Value* bound = o.find("bound")) {
        spec.bound = bound->as_double();
      }
      specs[o.find("name")->as_string()] = spec;
    }
  }
  return specs;
}

namespace {

/// Values of `metric` across the runs listed under `section`, in order.
std::vector<double> values_of(const hj::Value& workload,
                              std::string_view section,
                              const std::string& metric) {
  std::vector<double> out;
  const hj::Value* runs = workload.as_object().find(section);
  if (runs == nullptr) return out;
  for (const hj::Value& run : runs->as_array()) {
    const hj::Value* m = run.as_object().find("metrics")->as_object().find(
        metric);
    if (m != nullptr) out.push_back(m->as_object().find("value")->as_double());
  }
  return out;
}

bool all_equal(const std::vector<double>& v) {
  return std::all_of(v.begin(), v.end(),
                     [&](double x) { return x == v.front(); });
}

const hj::Object& workloads_of(const hj::Value& doc) {
  return doc.as_object().find("workloads")->as_object();
}

}  // namespace

int report_runs(const hj::Value& runs,
                const std::map<std::string, MetricSpec>& specs) {
  int problems = 0;
  for (const auto& [name, entry] : workloads_of(runs)) {
    std::printf("== %s\n", name.c_str());
    for (const char* section : {"runs", "traced"}) {
      for (const hj::Value& run : entry.as_object().find(section)->as_array()) {
        if (!run.as_object().find("correct")->as_bool()) {
          std::printf("  an %s run is INCORRECT\n", section);
          ++problems;
        }
      }
    }
    for (const auto& [metric, spec] : specs) {
      const bool e2e = spec.end_to_end;
      const std::vector<double> v =
          values_of(entry, e2e ? "runs" : "traced", metric);
      if (v.empty()) continue;
      const Summary s = summarize(v);
      std::printf("  %-26s %12.6g %-11s [%.6g, %.6g] n=%zu", metric.c_str(),
                  s.median, spec.unit.c_str(), s.q1, s.q3, s.n);
      if (e2e) {
        const bool steady = s.spread() <= spec.bound || metric == "setup_s";
        std::printf("  spread %.1f%% (bound %.0f%%)%s", 100.0 * s.spread(),
                    100.0 * spec.bound, steady ? "" : "  UNSTEADY");
        if (!steady) ++problems;
      } else if (is_count_metric(metric)) {
        std::printf("  %s", all_equal(v) ? "repeats exactly" : "DIFFERS");
        if (!all_equal(v)) ++problems;
      }
      std::printf("\n");
    }
  }
  return problems;
}

int compare_runs(const hj::Value& a, const hj::Value& b,
                 const std::map<std::string, MetricSpec>& specs) {
  bool any_worse = false;
  std::printf("%-15s %-26s %-28s %-28s %5s  %s\n", "workload", "metric",
              "A median [q1, q3]", "B median [q1, q3]", "win", "verdict");
  for (const auto& [name, a_entry] : workloads_of(a)) {
    const hj::Value* b_entry = workloads_of(b).find(name);
    if (b_entry == nullptr) continue;
    for (const auto& [metric, spec] : specs) {
      const char* section = spec.end_to_end ? "runs" : "traced";
      const std::vector<double> va = values_of(a_entry, section, metric);
      const std::vector<double> vb = values_of(*b_entry, section, metric);
      if (va.empty() || vb.empty()) continue;
      const Summary sa = summarize(va);
      const Summary sb = summarize(vb);
      const auto better = [&](double x, double y) {
        return spec.lower_is_better ? x < y : x > y;
      };
      const std::size_t pairs = std::min(va.size(), vb.size());
      std::size_t wins = 0;
      std::size_t losses = 0;
      for (std::size_t i = 0; i < pairs; ++i) {
        if (better(vb[i], va[i])) ++wins;
        if (better(va[i], vb[i])) ++losses;
      }
      const double win = static_cast<double>(wins) /
                         static_cast<double>(pairs);
      const double loss = static_cast<double>(losses) /
                          static_cast<double>(pairs);
      const bool separated =
          std::fabs(sb.median - sa.median) > sa.q3 - sa.q1;
      const bool b_all_better = spec.lower_is_better ? sb.max < sa.min
                                                     : sb.min > sa.max;

      const char* verdict = "unchanged";
      if (is_count_metric(metric)) {
        verdict = all_equal(va) && all_equal(vb) && va.front() == vb.front()
                      ? "unchanged"
                      : "worse";
      } else if (pairs >= 10 && win >= 0.9 && separated &&
                 better(sb.median, sa.median)) {
        verdict = "improved";
      } else if (!spec.end_to_end) {
        verdict = pairs >= 10 && loss >= 0.9 && separated ? "worse"
                                                          : "unresolved";
      } else if (sa.spread() > spec.bound && !b_all_better) {
        verdict = "unresolved";
      } else {
        const double rel = (sb.median - sa.median) / sa.median;
        const double worse_by = spec.lower_is_better ? rel : -rel;
        if (worse_by > spec.bound) verdict = "worse";
      }
      if (std::string_view(verdict) == "worse") any_worse = true;

      char a_text[64];
      char b_text[64];
      std::snprintf(a_text, sizeof a_text, "%.5g [%.5g, %.5g]", sa.median,
                    sa.q1, sa.q3);
      std::snprintf(b_text, sizeof b_text, "%.5g [%.5g, %.5g]", sb.median,
                    sb.q1, sb.q3);
      std::printf("%-15s %-26s %-28s %-28s %5.2f  %s (%s, n=%zu/%zu)\n",
                  name.c_str(), metric.c_str(), a_text, b_text, win, verdict,
                  spec.unit.c_str(), sa.n, sb.n);
    }
  }
  return any_worse ? 1 : 0;
}

}  // namespace scenbench
