// The determinism-contract rules and the suppression machinery.
//
// Rule ids (stable; used by suppressions, the JSON report, and CI):
//   unordered-iter     range-for over a std::unordered_{map,set} --
//                      iteration order is implementation-defined, so any
//                      result derived from it breaks bit-identity
//   nondet-call        rand()/srand()/std::random_device/time()/clock()/
//                      <chrono> ::now() -- nondeterministic inputs
//   ptr-key-container  std::map/std::set keyed by a pointer -- ordering
//                      follows allocation addresses, different every run
//   uninit-pod-member  uninitialized fundamental-type data member in a
//                      snapshot-bearing class -- restores to garbage
//   snapshot-complete  data member of a class declaring save_state/
//                      load_state that is never referenced in either
//                      implementation and not marked snapshot-exempt
//   seed-provenance    Rng/std::mt19937 constructed from an expression
//                      not visibly derived from a seed -- breaks the
//                      "every stochastic entry point derives from
//                      spec.seed" audit
//   float-unordered-reduce
//                      floating-point accumulation (+=, accumulate,
//                      reduce) over unordered-container iteration --
//                      the summation order, and therefore the bits,
//                      vary run to run
//   layer-violation    #include pointing at the same or a higher layer
//                      of the module DAG (tools/lint_layers.txt)
//   layer-cycle        cycle among project #includes
//
// Suppression syntax, reasons mandatory. Inline, on the same line or
// the line above the finding (the example below is itself well-formed,
// because this comment is scanned too -- rule ids are comma-separated):
//     // htpb-lint: allow(unordered-iter, nondet-call) explain why here
//   member exemption for snapshot-complete, on the declaration line or
//   the line above:
//     // snapshot-exempt: <reason>
//   repo suppression file (tools/htpb_lint_suppressions.txt), one per
//   line; `path` is repo-relative, a trailing '/' makes it a prefix:
//     rule-id  path  <reason>
#pragma once

#include <string>
#include <vector>

#include "lint/graph.hpp"
#include "lint/project_model.hpp"

namespace htpb::lint {

struct RuleInfo {
  const char* id;
  const char* summary;
  const char* hint;
};

/// The rule table, in reporting order.
const std::vector<RuleInfo>& rules();

struct Violation {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
  std::string hint;
};

struct FileSuppression {
  std::string rule;
  std::string path;  // exact repo-relative path, or prefix if ends in '/'
  std::string reason;
  int line = 0;  // line in the suppression file, for diagnostics
};

struct LintResult {
  std::vector<Violation> violations;  // sorted by (file, line, rule)
  int suppressed = 0;
  int files_scanned = 0;
  /// Configuration problems (malformed suppression, missing reason,
  /// module absent from the layers file): non-empty means the run is
  /// invalid, exit 2 regardless of findings.
  std::vector<std::string> errors;
};

/// Parses a suppression file body. Malformed lines land in `errors`.
std::vector<FileSuppression> parse_suppression_file(
    const std::string& path, const std::string& body,
    std::vector<std::string>& errors);

/// Cross-file joins the whole-program rule families consume. Built once
/// per run over the non-test summaries (a test must never "complete" a
/// production serializer).
struct ProjectJoin {
  std::map<std::string, std::set<std::string>> snapshot_bodies;
  std::map<std::string, std::set<std::string>> ctor_inits;
  /// Header summary by path stem, so X.cpp sees the unordered/float
  /// names X.hpp declares.
  std::map<std::string, const FileSummary*> header_by_stem;
};

/// The per-family passes (one translation unit each; see
/// rules_seed.cpp, rules_reduce.cpp and graph.cpp for layering). They
/// emit raw findings; run_lint applies suppressions.
void check_seed_provenance(const FileSummary& f, std::vector<Violation>& out);
void check_float_unordered_reduce(const FileSummary& f,
                                  const ProjectJoin& join,
                                  std::vector<Violation>& out);

/// Options for a run. `layers` enables the layering family; null skips
/// it (fixture runs outside a configured tree).
struct LintOptions {
  const LayerConfig* layers = nullptr;
};

/// Runs every rule over the project. Summaries must carry repo-relative
/// '/'-separated paths and arrive sorted by path. Paths under tests/
/// participate only in the include graph and layering; the per-file
/// determinism families do not apply to test code.
LintResult run_lint(const ProjectModel& pm,
                    const std::vector<FileSuppression>& suppressions,
                    const LintOptions& opts = {});

}  // namespace htpb::lint
