// htpb_diff -- structural comparison of scenario result trees.
//
//   htpb_diff A.json B.json [options]
//
// Compares two result documents -- two merged fleet trees, or a merged
// tree against a single `htpb_run --json` output -- member by member,
// reporting every divergence with its JSON path. Designed around the
// determinism contract: results are bit-identical across runs and thread
// counts except "timing", so the default ignore set is exactly the keys
// that legitimately differ between a fleet run and a single process
// ("timing", the fleet's own "fleet" section, and the reported "threads"
// count).
//
// Options:
//   --ignore KEY     also skip members named KEY, at any depth
//                    (repeatable; adds to the default set)
//   --rel-tol R      global relative tolerance for numeric leaves
//                    (default 0 = exact; a plain fraction -- "5%" is
//                    rejected, write 0.05)
//   --abs-tol A      global absolute tolerance (default 0)
//   --tol KEY=R      per-metric relative tolerance: applies to numeric
//                    members named KEY (repeatable, wins over --rel-tol)
//   --json PATH|-    also write a machine-readable report
//   --max-print N    cap printed differences (default 20; the report and
//                    the exit status always reflect the full count)
//
// Exit status: 0 = identical under the tolerances, 1 = differences,
// 2 = usage (a malformed number included) or unreadable input.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "cli_number.hpp"
#include "common/json.hpp"

namespace {

using htpb::json::Value;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s A.json B.json [--ignore KEY ...] [--rel-tol R]\n"
               "           [--abs-tol A] [--tol KEY=R ...] [--json out|-]"
               " [--max-print N]\n",
               argv0);
  return 2;
}

struct Diff {
  std::string path;
  std::string kind;  // "type" | "value" | "missing" | "length"
  std::string a;
  std::string b;
};

struct DiffConfig {
  std::vector<std::string> ignore = {"timing", "fleet", "threads"};
  std::vector<std::pair<std::string, double>> key_tols;
  double rel_tol = 0.0;
  double abs_tol = 0.0;
};

bool ignored(const DiffConfig& cfg, const std::string& key) {
  for (const std::string& k : cfg.ignore) {
    if (k == key) return true;
  }
  return false;
}

/// The tolerance for a leaf is keyed by its final member name
/// ("detection_rate", "q", ...), so one knob can loosen one metric
/// everywhere it appears in the tree.
double rel_tol_for(const DiffConfig& cfg, const std::string& key) {
  for (const auto& [k, tol] : cfg.key_tols) {
    if (k == key) return tol;
  }
  return cfg.rel_tol;
}

[[nodiscard]] std::string brief(const Value& v) {
  std::string text = htpb::json::dump(v, 0);
  if (text.size() > 80) {
    text.resize(77);
    text += "...";
  }
  return text;
}

void diff_values(const Value& a, const Value& b, const std::string& path,
                 const std::string& key, const DiffConfig& cfg,
                 std::vector<Diff>& out);

void diff_objects(const Value& a, const Value& b, const std::string& path,
                  const DiffConfig& cfg, std::vector<Diff>& out) {
  // A's member order first, then B-only members: deterministic output
  // regardless of which side grew the extra key.
  for (const auto& [key, av] : a.as_object()) {
    if (ignored(cfg, key)) continue;
    const std::string child = path.empty() ? key : path + "." + key;
    if (const Value* bv = b.as_object().find(key)) {
      diff_values(av, *bv, child, key, cfg, out);
    } else {
      out.push_back(Diff{child, "missing", brief(av), "(absent)"});
    }
  }
  for (const auto& [key, bv] : b.as_object()) {
    if (ignored(cfg, key) || a.as_object().contains(key)) continue;
    const std::string child = path.empty() ? key : path + "." + key;
    out.push_back(Diff{child, "missing", "(absent)", brief(bv)});
  }
}

void diff_values(const Value& a, const Value& b, const std::string& path,
                 const std::string& key, const DiffConfig& cfg,
                 std::vector<Diff>& out) {
  if (a.is_object() && b.is_object()) {
    diff_objects(a, b, path, cfg, out);
    return;
  }
  if (a.is_array() && b.is_array()) {
    const auto& aa = a.as_array();
    const auto& ba = b.as_array();
    if (aa.size() != ba.size()) {
      out.push_back(Diff{path, "length", std::to_string(aa.size()) + " elements",
                         std::to_string(ba.size()) + " elements"});
    }
    const std::size_t n = std::min(aa.size(), ba.size());
    for (std::size_t i = 0; i < n; ++i) {
      diff_values(aa[i], ba[i], path + "[" + std::to_string(i) + "]", key,
                  cfg, out);
    }
    return;
  }
  if (a.is_number() && b.is_number()) {
    const double av = a.as_double();
    const double bv = b.as_double();
    const double rel = rel_tol_for(cfg, key);
    const double scale = std::max(std::fabs(av), std::fabs(bv));
    if (std::fabs(av - bv) <= cfg.abs_tol + rel * scale) return;
    out.push_back(Diff{path, "value", brief(a), brief(b)});
    return;
  }
  if (a == b) return;
  const bool same_type =
      (a.is_bool() && b.is_bool()) || (a.is_string() && b.is_string()) ||
      (a.is_null() && b.is_null());
  out.push_back(Diff{path, same_type ? "value" : "type", brief(a), brief(b)});
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  DiffConfig cfg;
  std::string report_path;
  int max_print = 20;

  const auto next_arg = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: %s needs an argument\n", argv[0], flag);
      std::exit(2);
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--ignore") == 0) {
      cfg.ignore.emplace_back(next_arg(i, arg));
    } else if (std::strcmp(arg, "--rel-tol") == 0) {
      cfg.rel_tol = htpb::cli::parse_double(next_arg(i, arg), argv[0], arg);
    } else if (std::strcmp(arg, "--abs-tol") == 0) {
      cfg.abs_tol = htpb::cli::parse_double(next_arg(i, arg), argv[0], arg);
    } else if (std::strcmp(arg, "--tol") == 0) {
      const std::string kv = next_arg(i, arg);
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos || eq == 0) {
        std::fprintf(stderr, "%s: --tol expects KEY=R, got \"%s\"\n", argv[0],
                     kv.c_str());
        return 2;
      }
      cfg.key_tols.emplace_back(
          kv.substr(0, eq),
          htpb::cli::parse_double(kv.c_str() + eq + 1, argv[0], arg));
    } else if (std::strcmp(arg, "--json") == 0) {
      report_path = next_arg(i, arg);
    } else if (std::strcmp(arg, "--max-print") == 0) {
      max_print = htpb::cli::parse_int(next_arg(i, arg), argv[0], arg);
    } else if (std::strcmp(arg, "--help") == 0 ||
               std::strcmp(arg, "-h") == 0) {
      usage(argv[0]);
      return 0;
    } else if (arg[0] == '-' && arg[1] != '\0') {
      std::fprintf(stderr, "%s: unknown argument \"%s\"\n", argv[0], arg);
      return usage(argv[0]);
    } else {
      files.emplace_back(arg);
    }
  }
  if (files.size() != 2) return usage(argv[0]);

  Value a;
  Value b;
  try {
    a = htpb::json::parse_file(files[0]);
    b = htpb::json::parse_file(files[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }

  std::vector<Diff> diffs;
  diff_values(a, b, "", "", cfg, diffs);

  const int printed =
      std::min<int>(max_print, static_cast<int>(diffs.size()));
  for (int i = 0; i < printed; ++i) {
    std::printf("%s: %s\n  A: %s\n  B: %s\n", diffs[i].path.c_str(),
                diffs[i].kind.c_str(), diffs[i].a.c_str(),
                diffs[i].b.c_str());
  }
  if (static_cast<int>(diffs.size()) > printed) {
    std::printf("... and %zu more\n", diffs.size() - printed);
  }
  std::fprintf(stderr, "%s: %zu difference%s between %s and %s\n", argv[0],
               diffs.size(), diffs.size() == 1 ? "" : "s", files[0].c_str(),
               files[1].c_str());

  if (!report_path.empty()) {
    htpb::json::Object report;
    report["a"] = Value(files[0]);
    report["b"] = Value(files[1]);
    htpb::json::Array ignored_keys;
    for (const std::string& k : cfg.ignore) ignored_keys.push_back(Value(k));
    report["ignored"] = Value(std::move(ignored_keys));
    report["differences"] = Value(static_cast<long long>(diffs.size()));
    htpb::json::Array diff_array;
    for (const Diff& d : diffs) {
      htpb::json::Object o;
      o["path"] = Value(d.path);
      o["kind"] = Value(d.kind);
      o["a"] = Value(d.a);
      o["b"] = Value(d.b);
      diff_array.push_back(Value(std::move(o)));
    }
    report["diffs"] = Value(std::move(diff_array));
    if (report_path == "-") {
      std::printf("%s\n", htpb::json::dump(Value(std::move(report)), 2).c_str());
    } else {
      htpb::json::dump_file(Value(std::move(report)), report_path);
    }
  }

  return diffs.empty() ? 0 : 1;
}
