// htpb_lint -- determinism & snapshot-safety static analysis.
//
//   htpb_lint [options] [paths...]
//
// Whole-program pass: scans C++ sources (default: src/ tools/ bench/
// tests/ under --root, minus the lint fixtures) into one
// ProjectModel -- include graph, class registry with cross-TU snapshot
// bodies -- and runs the determinism contract over it: results must be
// bit-identical across thread counts, fleet split/merge, and snapshot
// round-trips. See tools/lint/rules.hpp for the rule table and the
// suppression syntax, and docs/ARCHITECTURE.md §12 for the policy.
//
// Options:
//   --root DIR              repo root; scan paths and reported paths are
//                           relative to it (default: cwd)
//   --json PATH|-           write a machine-readable report
//   --suppressions FILE     extra suppression file (repeatable)
//   --no-default-suppressions
//                           ignore tools/htpb_lint_suppressions.txt
//   --layers FILE           layer DAG for layer-violation/layer-cycle
//                           (default: tools/lint_layers.txt under --root
//                           when present; absent = layering skipped)
//   --list-rules            print the rule table and exit
//
// Exit status: 0 = clean, 1 = unsuppressed violations, 2 = bad usage,
// unreadable input, or malformed suppression (reasons are mandatory).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "lint/graph.hpp"
#include "lint/project_model.hpp"
#include "lint/rules.hpp"

namespace {

namespace fs = std::filesystem;
using htpb::json::Value;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--root DIR] [--json PATH|-] [--suppressions FILE ...]\n"
      "           [--no-default-suppressions] [--layers FILE]\n"
      "           [--list-rules] [paths...]\n",
      argv0);
  return 2;
}

bool source_file(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc" ||
         ext == ".hh";
}

std::string slurp(const fs::path& p, bool& ok) {
  std::ifstream in(p, std::ios::binary);
  ok = in.good();
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Repo-relative, '/'-separated form of `p` under `root`.
std::string rel_path(const fs::path& root, const fs::path& p) {
  std::error_code ec;
  const fs::path rel = fs::relative(p, root, ec);
  return (ec ? p : rel).generic_string();
}

/// The lint fixture files are deliberate rule violations; scanning them
/// as part of the tree would defeat their purpose.
bool fixture_path(const std::string& rel) {
  return rel.rfind("tests/lint/fixtures/", 0) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  std::string json_path;
  std::string layers_path;
  std::vector<std::string> suppression_files;
  bool default_suppressions = true;
  std::vector<std::string> paths;

  const auto next_arg = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: %s needs an argument\n", argv[0], flag);
      std::exit(2);
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--root") == 0) {
      root = next_arg(i, arg);
    } else if (std::strcmp(arg, "--json") == 0) {
      json_path = next_arg(i, arg);
    } else if (std::strcmp(arg, "--suppressions") == 0) {
      suppression_files.emplace_back(next_arg(i, arg));
    } else if (std::strcmp(arg, "--no-default-suppressions") == 0) {
      default_suppressions = false;
    } else if (std::strcmp(arg, "--layers") == 0) {
      layers_path = next_arg(i, arg);
    } else if (std::strcmp(arg, "--list-rules") == 0) {
      for (const htpb::lint::RuleInfo& r : htpb::lint::rules()) {
        std::printf("%-22s %s\n", r.id, r.summary);
      }
      return 0;
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(argv[0]);
      return 0;
    } else if (arg[0] == '-' && arg[1] != '\0') {
      std::fprintf(stderr, "%s: unknown argument \"%s\"\n", argv[0], arg);
      return usage(argv[0]);
    } else {
      paths.emplace_back(arg);
    }
  }
  const bool default_paths = paths.empty();
  if (default_paths) paths = {"src", "tools", "bench", "tests"};

  // Collect the file set, sorted so reports and exit codes never depend
  // on directory-walk order.
  std::vector<fs::path> files;
  for (const std::string& p : paths) {
    const fs::path full = fs::path(p).is_absolute() ? fs::path(p) : root / p;
    std::error_code ec;
    if (fs::is_regular_file(full, ec)) {
      files.push_back(full);
    } else if (fs::is_directory(full, ec)) {
      for (const auto& e : fs::recursive_directory_iterator(full, ec)) {
        if (e.is_regular_file() && source_file(e.path()) &&
            !fixture_path(rel_path(root, e.path()))) {
          files.push_back(e.path());
        }
      }
      if (ec) {
        std::fprintf(stderr, "%s: cannot walk %s: %s\n", argv[0],
                     full.string().c_str(), ec.message().c_str());
        return 2;
      }
    } else if (default_paths && p != "src") {
      // A default scan root that does not exist (a tree without bench/)
      // is fine; an explicit argument that does not is not.
      continue;
    } else {
      std::fprintf(stderr, "%s: no such file or directory: %s\n", argv[0],
                   full.string().c_str());
      return 2;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<std::string> errors;
  std::vector<htpb::lint::FileSuppression> suppressions;
  if (default_suppressions) {
    const fs::path def = root / "tools" / "htpb_lint_suppressions.txt";
    std::error_code ec;
    if (fs::is_regular_file(def, ec)) {
      suppression_files.insert(suppression_files.begin(),
                               def.generic_string());
    }
  }
  for (const std::string& sf : suppression_files) {
    bool ok = false;
    const std::string body = slurp(sf, ok);
    if (!ok) {
      std::fprintf(stderr, "%s: cannot read suppression file %s\n", argv[0],
                   sf.c_str());
      return 2;
    }
    const auto parsed =
        htpb::lint::parse_suppression_file(sf, body, errors);
    suppressions.insert(suppressions.end(), parsed.begin(), parsed.end());
  }

  // Layer DAG: explicit flag, or the checked-in default when present.
  htpb::lint::LayerConfig layers;
  if (layers_path.empty()) {
    const fs::path def = root / "tools" / "lint_layers.txt";
    std::error_code ec;
    if (fs::is_regular_file(def, ec)) layers_path = def.generic_string();
  }
  if (!layers_path.empty()) {
    bool ok = false;
    const std::string body = slurp(layers_path, ok);
    if (!ok) {
      std::fprintf(stderr, "%s: cannot read layers file %s\n", argv[0],
                   layers_path.c_str());
      return 2;
    }
    layers = htpb::lint::parse_layers(layers_path, body, errors);
  }

  htpb::lint::ProjectModel pm;
  pm.files.reserve(files.size());
  for (const fs::path& f : files) {
    bool ok = false;
    const std::string body = slurp(f, ok);
    if (!ok) {
      std::fprintf(stderr, "%s: cannot read %s\n", argv[0],
                   f.string().c_str());
      return 2;
    }
    pm.files.push_back(htpb::lint::summarize(rel_path(root, f), body));
  }

  htpb::lint::LintOptions opts;
  if (layers.loaded) opts.layers = &layers;
  htpb::lint::LintResult result =
      htpb::lint::run_lint(pm, suppressions, opts);
  result.errors.insert(result.errors.end(), errors.begin(), errors.end());
  std::sort(result.errors.begin(), result.errors.end());

  for (const htpb::lint::Violation& v : result.violations) {
    std::printf("%s:%d: [%s] %s\n  hint: %s\n", v.file.c_str(), v.line,
                v.rule.c_str(), v.message.c_str(), v.hint.c_str());
  }
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "%s: error: %s\n", argv[0], e.c_str());
  }
  std::fprintf(stderr,
               "%s: %d file%s scanned, %zu violation%s, %d suppressed\n",
               argv[0], result.files_scanned,
               result.files_scanned == 1 ? "" : "s",
               result.violations.size(),
               result.violations.size() == 1 ? "" : "s", result.suppressed);

  if (!json_path.empty()) {
    htpb::json::Object report;
    report["files_scanned"] =
        Value(static_cast<long long>(result.files_scanned));
    report["suppressed"] = Value(static_cast<long long>(result.suppressed));
    htpb::json::Array viols;
    for (const htpb::lint::Violation& v : result.violations) {
      htpb::json::Object o;
      o["file"] = Value(v.file);
      o["line"] = Value(static_cast<long long>(v.line));
      o["rule"] = Value(v.rule);
      o["message"] = Value(v.message);
      o["hint"] = Value(v.hint);
      viols.push_back(Value(std::move(o)));
    }
    report["violations"] = Value(std::move(viols));
    htpb::json::Array errs;
    for (const std::string& e : result.errors) errs.push_back(Value(e));
    report["errors"] = Value(std::move(errs));
    if (json_path == "-") {
      std::printf("%s\n",
                  htpb::json::dump(Value(std::move(report)), 2).c_str());
    } else {
      htpb::json::dump_file(Value(std::move(report)), json_path);
    }
  }

  if (!result.errors.empty()) return 2;
  return result.violations.empty() ? 0 : 1;
}
