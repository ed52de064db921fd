#include "lint/rules.hpp"

#include <algorithm>
#include <sstream>

namespace htpb::lint {

namespace {

constexpr const char* kUnorderedIter = "unordered-iter";
constexpr const char* kUninitPod = "uninit-pod-member";
constexpr const char* kSnapshotComplete = "snapshot-complete";

const std::set<std::string>& fundamental_types() {
  // Fundamental + <cstdint> names, plus the repo's own trivially-copyable
  // aliases from common/types.hpp. A member of one of these types left
  // without an initializer in a snapshot-bearing class restores from
  // whatever the allocator handed out.
  static const std::set<std::string> t = {
      "bool",     "char",     "char8_t",   "char16_t", "char32_t",
      "wchar_t",  "short",    "int",       "long",     "unsigned",
      "signed",   "float",    "double",    "size_t",   "ptrdiff_t",
      "int8_t",   "int16_t",  "int32_t",   "int64_t",  "uint8_t",
      "uint16_t", "uint32_t", "uint64_t",  "intptr_t", "uintptr_t",
      "Cycle",    "NodeId",   "AppId",     "PacketId"};
  return t;
}

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

bool inline_allowed(const MarkerSet& mk, int line, const std::string& rule) {
  for (const int l : {line, line - 1}) {
    const auto it = mk.allows.find(l);
    if (it != mk.allows.end() && it->second.count(rule)) return true;
  }
  return false;
}

bool line_marked(const std::set<int>& lines, int line) {
  return lines.count(line) > 0 || lines.count(line - 1) > 0;
}

bool file_suppressed(const std::vector<FileSuppression>& sups,
                     const Violation& v) {
  for (const FileSuppression& s : sups) {
    if (s.rule != v.rule) continue;
    if (s.path == v.file) return true;
    if (!s.path.empty() && s.path.back() == '/' &&
        v.file.rfind(s.path, 0) == 0) {
      return true;
    }
  }
  return false;
}

const char* rule_hint(const std::string& id) {
  for (const RuleInfo& r : rules()) {
    if (id == r.id) return r.hint;
  }
  return "";
}

void emit(std::vector<Violation>& out, const std::string& file, int line,
          const char* rule, std::string message) {
  out.push_back(Violation{file, line, rule, std::move(message),
                          rule_hint(rule)});
}

// ---------------------------------------------------------------------

void check_unordered_iter(const FileSummary& f,
                          const std::set<std::string>& names,
                          std::vector<Violation>& out) {
  for (const RangeFor& rf : f.range_fors) {
    if (rf.target.empty() || !names.count(rf.target)) continue;
    emit(out, f.path, rf.line, kUnorderedIter,
         "range-for over unordered container '" + rf.target + "'");
  }
}

void check_members(const FileSummary& f, const ProjectJoin& join,
                   std::vector<Violation>& out) {
  for (const ClassInfo& c : f.classes) {
    if (!c.declares_save && !c.declares_load) continue;
    const auto body_it = join.snapshot_bodies.find(c.name);
    const bool have_impl =
        body_it != join.snapshot_bodies.end() && !body_it->second.empty();
    const auto init_it = join.ctor_inits.find(c.name);
    for (const Member& mem : c.members) {
      // uninit-pod-member: trivial type, no initializer.
      std::vector<std::string> type;
      bool ref = false;
      for (const std::string& t : mem.type_tokens) {
        if (t == "&") ref = true;
        if (t == "std" || t == "::" || t == "const" || t == "volatile") {
          continue;
        }
        type.push_back(t);
      }
      const bool ptr = !type.empty() && type.back() == "*";
      bool pod = !type.empty() && !ref;
      for (const std::string& t : type) {
        if (t != "*" && !fundamental_types().count(t)) pod = false;
      }
      const bool ctor_inited = init_it != join.ctor_inits.end() &&
                               init_it->second.count(mem.name) > 0;
      if (!mem.has_init && !ctor_inited && !ref && (pod || ptr)) {
        emit(out, f.path, mem.line, kUninitPod,
             "member '" + mem.name + "' of snapshot class '" + c.name +
                 "' has no initializer");
      }

      // snapshot-complete: the member must be referenced by the class's
      // save_state/load_state bodies (wherever they live).
      if (!have_impl) continue;
      if (body_it->second.count(mem.name)) continue;
      emit(out, f.path, mem.line, kSnapshotComplete,
           "member '" + mem.name + "' of snapshot class '" + c.name +
               "' is not referenced in save_state/load_state");
    }
  }
}

std::string stem_of(const std::string& path) {
  const std::size_t dot = path.rfind('.');
  return dot == std::string::npos ? path : path.substr(0, dot);
}

bool is_header(const std::string& path) {
  return path.size() >= 2 && (path.rfind(".hpp") == path.size() - 4 ||
                              path.rfind(".hh") == path.size() - 3 ||
                              path.rfind(".h") == path.size() - 2);
}

/// Test code is scanned (the include graph and layering need it) but the
/// per-file determinism families do not apply there: a test may
/// legitimately iterate an unordered container to assert its contents or
/// seed an Rng with a literal.
bool test_scope(const std::string& path) {
  return path.rfind("tests/", 0) == 0;
}

}  // namespace

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> r = {
      {kUnorderedIter,
       "range-for over std::unordered_map/unordered_set",
       "collect keys, sort, iterate the sorted list (see "
       "power/defense.cpp sorted_nodes) or use an ordered container"},
      {"nondet-call",
       "rand()/random_device/time()/clock()/::now() outside whitelisted "
       "timing code",
       "derive randomness from common::Rng seeded by the spec; route "
       "timing through a suppressed timing helper"},
      {"ptr-key-container",
       "std::map/std::set keyed by a pointer",
       "key by a stable id (NodeId, PacketId, index) instead of an "
       "allocation address"},
      {kUninitPod,
       "uninitialized fundamental-type member in a snapshot-bearing class",
       "give the member a default initializer so a restored object never "
       "carries garbage"},
      {kSnapshotComplete,
       "data member missing from save_state/load_state",
       "serialize the member, or mark the declaration "
       "\"// snapshot-exempt: <reason>\" if it is derived or transient"},
      {"seed-provenance",
       "Rng/std::mt19937 seeded from a literal or non-seed expression",
       "derive the constructor argument from spec.seed (directly or via "
       "splitmix64 of a *seed* value) so the stream replays from the spec"},
      {"float-unordered-reduce",
       "floating-point accumulation over unordered-container iteration",
       "sum over a sorted copy of the keys so the addition order is "
       "stable; integer accumulation is exempt already"},
      {"layer-violation",
       "#include pointing at the same or a higher layer of the module DAG",
       "depend only on strictly lower layers of tools/lint_layers.txt; "
       "move shared code down or invert the dependency"},
      {"layer-cycle",
       "cycle among project #includes",
       "break the cycle with a forward declaration or by extracting the "
       "shared piece into a lower layer"},
  };
  return r;
}

std::vector<FileSuppression> parse_suppression_file(
    const std::string& path, const std::string& body,
    std::vector<std::string>& errors) {
  std::vector<FileSuppression> out;
  std::stringstream ss(body);
  std::string line;
  int lineno = 0;
  while (std::getline(ss, line)) {
    ++lineno;
    const std::string t = trim(line);
    if (t.empty() || t[0] == '#') continue;
    std::stringstream fields(t);
    FileSuppression s;
    s.line = lineno;
    fields >> s.rule >> s.path;
    std::getline(fields, s.reason);
    s.reason = trim(s.reason);
    const std::string where = path + ":" + std::to_string(lineno);
    bool known = false;
    for (const RuleInfo& r : rules()) known |= s.rule == r.id;
    if (!known) {
      errors.push_back(where + ": unknown rule id \"" + s.rule + "\"");
      continue;
    }
    if (s.path.empty()) {
      errors.push_back(where + ": suppression needs a path");
      continue;
    }
    if (s.reason.empty()) {
      errors.push_back(where + ": suppression for " + s.rule + " on " +
                       s.path + " needs a reason");
      continue;
    }
    out.push_back(std::move(s));
  }
  return out;
}

LintResult run_lint(const ProjectModel& pm,
                    const std::vector<FileSuppression>& suppressions,
                    const LintOptions& opts) {
  LintResult result;
  result.files_scanned = static_cast<int>(pm.files.size());

  ProjectJoin join;
  std::map<std::string, const MarkerSet*> markers_by_file;
  for (const FileSummary& f : pm.files) {
    markers_by_file[f.path] = &f.markers;
    result.errors.insert(result.errors.end(), f.markers.errors.begin(),
                         f.markers.errors.end());
    if (is_header(f.path)) join.header_by_stem[stem_of(f.path)] = &f;
    if (test_scope(f.path)) continue;
    const auto merge =
        [](std::map<std::string, std::set<std::string>>& into,
           const std::map<std::string, std::set<std::string>>& from) {
          for (const auto& [cls, idents] : from) {
            into[cls].insert(idents.begin(), idents.end());
          }
        };
    merge(join.snapshot_bodies, f.snapshot_bodies);
    merge(join.ctor_inits, f.ctor_inits);
  }

  std::vector<Violation> raw;
  for (const FileSummary& f : pm.files) {
    if (test_scope(f.path)) continue;

    for (const TokenFinding& tf : f.token_findings) {
      emit(raw, f.path, tf.line, tf.rule.c_str(), tf.message);
    }

    std::set<std::string> unordered = f.unordered_names;
    if (!is_header(f.path)) {
      const auto it = join.header_by_stem.find(stem_of(f.path));
      if (it != join.header_by_stem.end()) {
        unordered.insert(it->second->unordered_names.begin(),
                         it->second->unordered_names.end());
      }
    }
    check_unordered_iter(f, unordered, raw);
    check_members(f, join, raw);
    check_seed_provenance(f, raw);
    check_float_unordered_reduce(f, join, raw);
  }

  if (opts.layers != nullptr) {
    for (const LayerFinding& lf :
         check_layering(pm, *opts.layers, result.errors)) {
      emit(raw, lf.file, lf.line, lf.rule.c_str(), lf.message);
    }
  }

  std::vector<Violation> kept;
  for (Violation& v : raw) {
    const auto mk_it = markers_by_file.find(v.file);
    const MarkerSet* mk = mk_it == markers_by_file.end() ? nullptr
                                                         : mk_it->second;
    bool drop = false;
    if (mk != nullptr) {
      drop = inline_allowed(*mk, v.line, v.rule) ||
             (v.rule == kSnapshotComplete &&
              line_marked(mk->snapshot_exempt, v.line));
    }
    if (drop || file_suppressed(suppressions, v)) {
      ++result.suppressed;
    } else {
      kept.push_back(std::move(v));
    }
  }

  std::sort(kept.begin(), kept.end(),
            [](const Violation& a, const Violation& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  result.violations = std::move(kept);
  std::sort(result.errors.begin(), result.errors.end());
  return result;
}

}  // namespace htpb::lint
