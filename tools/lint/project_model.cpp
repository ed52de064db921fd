#include "lint/project_model.hpp"

#include <sstream>

#include "lint/rules.hpp"

namespace htpb::lint {

namespace {

bool is_ident(const Token& t, const char* text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

// ---------------------------------------------------------------------
// Marker scan (comment-level syntax; validated here so a malformed
// marker is a configuration error even when no finding consults it).

MarkerSet scan_markers(const std::string& path, const LexedFile& lexed) {
  MarkerSet out;
  for (const auto& [line, text] : lexed.comments) {
    const std::string where = path + ":" + std::to_string(line);
    if (const std::size_t at = text.find("htpb-lint:");
        at != std::string::npos) {
      const std::string rest = trim(text.substr(at + 10));
      const bool ok = rest.rfind("allow(", 0) == 0;
      const std::size_t close = ok ? rest.find(')') : std::string::npos;
      if (!ok || close == std::string::npos) {
        out.errors.push_back(where +
                             ": malformed htpb-lint marker; expected "
                             "\"htpb-lint: allow(rule-id) reason\"");
        continue;
      }
      std::set<std::string> ids;
      std::stringstream list(rest.substr(6, close - 6));
      std::string id;
      while (std::getline(list, id, ',')) {
        id = trim(id);
        bool known = false;
        for (const RuleInfo& r : rules()) known |= id == r.id;
        if (!known) {
          out.errors.push_back(where + ": unknown rule id \"" + id +
                               "\" in htpb-lint: allow(...)");
        } else {
          ids.insert(id);
        }
      }
      if (trim(rest.substr(close + 1)).empty()) {
        out.errors.push_back(where +
                             ": htpb-lint: allow(...) requires a reason");
        continue;
      }
      if (!ids.empty()) out.allows[line] = std::move(ids);
    }
    if (const std::size_t at = text.find("snapshot-exempt:");
        at != std::string::npos) {
      if (trim(text.substr(at + 16)).empty()) {
        out.errors.push_back(where + ": snapshot-exempt requires a reason");
      } else {
        out.snapshot_exempt.insert(line);
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// Token-level rules, precomputed into the summary.

void check_nondet_calls(const LexedFile& lexed,
                        std::vector<TokenFinding>& out) {
  const std::vector<Token>& ts = lexed.tokens;
  const auto prev_blocks = [&](std::size_t i) {
    // Member access means some other API's method that merely shares the
    // libc name (rng.random(), cache.lru_clock() via .clock()); a
    // non-std qualifier means the same for class-scoped names.
    if (i == 0) return false;
    const std::string& p = ts[i - 1].text;
    if (p == "." || p == "->") return true;
    if (p == "::") return !(i >= 2 && is_ident(ts[i - 2], "std"));
    return false;
  };
  static const std::set<std::string> rand_like = {
      "rand", "srand", "rand_r", "drand48", "lrand48", "random"};
  static const std::set<std::string> time_like = {
      "time", "clock", "gettimeofday", "clock_gettime"};
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ts[i].kind != TokKind::kIdent) continue;
    const std::string& id = ts[i].text;
    if (id == "random_device") {
      out.push_back({ts[i].line, "nondet-call",
                     "std::random_device is a nondeterministic source"});
      continue;
    }
    const bool call = i + 1 < ts.size() && ts[i + 1].text == "(";
    if (!call) continue;
    // `now` is checked before the qualifier gate: it is ALWAYS
    // clock-qualified (steady_clock::now, clock_type::now, ...).
    if (id == "now" && i > 0 && ts[i - 1].text == "::") {
      const std::string qual =
          i >= 2 && ts[i - 2].kind == TokKind::kIdent ? ts[i - 2].text
                                                      : "clock";
      out.push_back({ts[i].line, "nondet-call",
                     "'" + qual + "::now()' reads wall-clock state"});
      continue;
    }
    if (prev_blocks(i)) continue;
    if (rand_like.count(id)) {
      out.push_back({ts[i].line, "nondet-call",
                     "call to '" + id +
                         "()' bypasses the seeded common::Rng"});
    } else if (time_like.count(id)) {
      out.push_back({ts[i].line, "nondet-call",
                     "call to '" + id + "()' reads wall-clock state"});
    }
  }
}

void check_ptr_keys(const LexedFile& lexed, std::vector<TokenFinding>& out) {
  static const std::set<std::string> ordered = {"map", "set", "multimap",
                                                "multiset"};
  const std::vector<Token>& ts = lexed.tokens;
  for (std::size_t i = 2; i + 1 < ts.size(); ++i) {
    if (ts[i].kind != TokKind::kIdent || !ordered.count(ts[i].text) ||
        ts[i + 1].text != "<" || ts[i - 1].text != "::" ||
        !is_ident(ts[i - 2], "std")) {
      continue;
    }
    // Walk the first template argument; a trailing '*' means the keys
    // are pointers and the tree orders by allocation address.
    int depth = 0;
    std::string last;
    for (std::size_t j = i + 1; j < ts.size(); ++j) {
      const std::string& t = ts[j].text;
      if (t == "<") {
        ++depth;
        continue;
      }
      if (t == ">") {
        if (--depth == 0) break;
        continue;
      }
      if (t == "," && depth == 1) break;
      if (depth >= 1) last = t;
    }
    if (last == "*") {
      out.push_back({ts[i].line, "ptr-key-container",
                     "std::" + ts[i].text + " keyed by a pointer type"});
    }
  }
}

/// Names declared with float/double type (members, locals, parameters).
std::set<std::string> collect_float_names(const std::vector<Token>& ts) {
  std::set<std::string> names;
  for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
    if (!is_ident(ts[i], "float") && !is_ident(ts[i], "double")) continue;
    std::size_t j = i + 1;
    while (j < ts.size() &&
           (ts[j].text == "&" || ts[j].text == "*" ||
            is_ident(ts[j], "const"))) {
      ++j;
    }
    if (j < ts.size() && ts[j].kind == TokKind::kIdent) {
      names.insert(ts[j].text);
    }
  }
  return names;
}

}  // namespace

FileSummary summarize(const std::string& path, const std::string& content) {
  FileModel m = build_model(path, lex(content));
  FileSummary s;
  s.path = path;
  s.includes = std::move(m.lexed.includes);
  s.classes = std::move(m.classes);
  s.snapshot_bodies = std::move(m.snapshot_bodies);
  s.ctor_inits = std::move(m.ctor_inits);
  s.unordered_names = std::move(m.unordered_names);
  s.float_names = collect_float_names(m.lexed.tokens);
  s.range_fors = std::move(m.range_fors);
  s.rng_sites = std::move(m.rng_sites);
  s.reduce_sites = std::move(m.reduce_sites);
  s.markers = scan_markers(path, m.lexed);
  check_nondet_calls(m.lexed, s.token_findings);
  check_ptr_keys(m.lexed, s.token_findings);
  return s;
}

}  // namespace htpb::lint
