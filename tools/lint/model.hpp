// Structural model of one source file, extracted from the token stream.
// This is the "parser" half of htpb_lint: a brace/paren-tracking scan
// that recognizes exactly the shapes the determinism rules need --
// class bodies and their data members, save_state/load_state bodies
// (inline and out-of-class), declarations of unordered containers,
// range-for statements, Rng construction sites and accumulation sites --
// without a real C++ front end. Anything it cannot classify it skips;
// the failure mode is a missed finding, never a crash or a spurious parse
// error.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/lexer.hpp"

namespace htpb::lint {

struct Member {
  std::string name;
  int line = 0;
  /// Declaration tokens left of the member name (cv-qualifiers stripped).
  std::vector<std::string> type_tokens;
  bool has_init = false;
};

struct ClassInfo {
  std::string name;
  int line = 0;
  std::vector<Member> members;
  bool declares_save = false;
  bool declares_load = false;
};

struct RangeFor {
  int line = 0;
  /// Final identifier of the range expression when it is a plain
  /// identifier / member-access chain ("m", "this->m_", "obj.m_");
  /// empty when the expression is anything more complex (a call, an
  /// index, a temporary), which the unordered-iteration rule ignores.
  std::string target;
};

/// An Rng / std::mt19937 construction with arguments. The seed-provenance
/// rule flags sites whose argument expression is not visibly derived from
/// a seed (no identifier containing "seed" or "rng" appears in it).
struct RngSite {
  int line = 0;
  bool seed_derived = false;
  std::string args;  // flattened argument text, for the message
};

/// An accumulation tied to container iteration: a `+=` inside a range-for
/// body, or std::accumulate/std::reduce over container.begin(). The
/// float-unordered-reduce rule fires when `target` names an unordered
/// container AND the accumulation is provably floating-point (integer
/// sums are order-insensitive): for `+=`, `acc` resolves to a
/// float/double-declared name; for accumulate/reduce, the init argument
/// is a floating literal (`float_evidence` -- accumulate over an int
/// init sums in int, which is deterministic in any order).
struct ReduceSite {
  int line = 0;
  std::string target;
  std::string op;   // "+=", "accumulate" or "reduce"
  std::string acc;  // accumulator ident for "+="; empty otherwise
  bool float_evidence = false;
};

struct FileModel {
  std::string path;  // repo-relative, '/'-separated
  LexedFile lexed;
  std::vector<ClassInfo> classes;
  /// Identifiers in each class's save_state/load_state implementations,
  /// merged (snapshot-complete checks members against the union).
  std::map<std::string, std::set<std::string>> snapshot_bodies;
  /// Members initialized in a constructor mem-init-list, keyed by class
  /// name. The uninit-pod-member rule treats these as initialized.
  std::map<std::string, std::set<std::string>> ctor_inits;
  /// Names declared with an unordered container type in this file
  /// (members, locals, parameters; aliases resolved one level).
  std::set<std::string> unordered_names;
  std::vector<RangeFor> range_fors;
  std::vector<RngSite> rng_sites;
  std::vector<ReduceSite> reduce_sites;
};

/// Builds the model for one already-lexed file.
FileModel build_model(std::string path, LexedFile lexed);

}  // namespace htpb::lint
