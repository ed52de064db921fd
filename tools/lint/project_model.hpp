// Whole-program layer of htpb_lint.
//
// A FileSummary is everything the rule engine needs to know about one
// source file, and nothing else: no token stream, no comment text. It is
// a pure function of (path, content). Anything token-level (the
// nondet-call / ptr-key-container matchers, the suppression-marker scan)
// runs at summarize() time and lands in the summary as precomputed
// findings and marker tables.
//
// A ProjectModel is just the ordered list of summaries; the cross-file
// joins (snapshot bodies by class, include graph, header/source
// unordered-name union) are built where they are consumed, in
// rules.cpp / graph.cpp.
#pragma once

#include <string>
#include <vector>

#include "lint/model.hpp"

namespace htpb::lint {

/// A per-file finding precomputed by summarize(): the token-level rules
/// whose evidence would otherwise require keeping the token stream.
/// Suppression is NOT applied here -- the engine filters against
/// markers/suppressions like any other finding.
struct TokenFinding {
  int line = 0;
  std::string rule;
  std::string message;
};

/// Suppression markers of one file, pre-validated. Malformed markers are
/// configuration errors (already "path:line: ..."-prefixed) even when no
/// finding would have consulted them.
struct MarkerSet {
  /// line -> rule ids from an inline allow(...) marker.
  std::map<int, std::set<std::string>> allows;
  std::set<int> snapshot_exempt;  // `// snapshot-exempt: reason` lines
  std::vector<std::string> errors;
};

struct FileSummary {
  std::string path;  // repo-relative, '/'-separated
  std::vector<Include> includes;
  std::vector<ClassInfo> classes;
  std::map<std::string, std::set<std::string>> snapshot_bodies;
  std::map<std::string, std::set<std::string>> ctor_inits;
  std::set<std::string> unordered_names;
  /// Names declared with float/double type; the float-unordered-reduce
  /// rule only fires when the accumulator is provably floating-point.
  std::set<std::string> float_names;
  std::vector<RangeFor> range_fors;
  std::vector<RngSite> rng_sites;
  std::vector<ReduceSite> reduce_sites;
  MarkerSet markers;
  std::vector<TokenFinding> token_findings;
};

struct ProjectModel {
  std::vector<FileSummary> files;  // sorted by path by the driver
};

/// Builds the summary of one file from its content. Pure: same
/// (path, content) -> same summary, always.
FileSummary summarize(const std::string& path, const std::string& content);

}  // namespace htpb::lint
