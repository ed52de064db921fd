#include "lint/project_model.hpp"

#include <sstream>

#include "common/json.hpp"
#include "lint/rules.hpp"

namespace htpb::lint {

namespace {

using json::Value;

/// Bumped whenever FileSummary's shape or any summarize() heuristic
/// changes; stale cache shards then miss on the key instead of feeding
/// the engine summaries produced by older extraction code.
constexpr int kFormatVersion = 2;

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

// ---------------------------------------------------------------------
// JSON round-trip helpers. Every container serializes in its natural
// (sorted) order, so the encoding is deterministic.

Value strings_to_json(const std::set<std::string>& s) {
  json::Array a;
  for (const std::string& v : s) a.push_back(Value(v));
  return Value(std::move(a));
}

std::set<std::string> strings_from_json(const Value& v) {
  std::set<std::string> out;
  for (const Value& e : v.as_array()) out.insert(e.as_string());
  return out;
}

Value ident_map_to_json(const std::map<std::string, std::set<std::string>>& m) {
  json::Object o;
  for (const auto& [k, v] : m) o[k] = strings_to_json(v);
  return Value(std::move(o));
}

std::map<std::string, std::set<std::string>> ident_map_from_json(
    const Value& v) {
  std::map<std::string, std::set<std::string>> out;
  for (const auto& [k, e] : v.as_object()) out[k] = strings_from_json(e);
  return out;
}

Value lines_to_json(const std::set<int>& s) {
  json::Array a;
  for (const int l : s) a.push_back(Value(l));
  return Value(std::move(a));
}

std::set<int> lines_from_json(const Value& v) {
  std::set<int> out;
  for (const Value& e : v.as_array()) out.insert(static_cast<int>(e.as_int()));
  return out;
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

std::string summary_to_json(const FileSummary& s) {
  json::Object root;
  root["version"] = Value(kFormatVersion);
  root["path"] = Value(s.path);

  json::Array includes;
  for (const Include& inc : s.includes) {
    json::Object o;
    o["line"] = Value(inc.line);
    o["target"] = Value(inc.target);
    includes.push_back(Value(std::move(o)));
  }
  root["includes"] = Value(std::move(includes));

  json::Array classes;
  for (const ClassInfo& c : s.classes) {
    json::Object o;
    o["name"] = Value(c.name);
    o["line"] = Value(c.line);
    o["declares_save"] = Value(c.declares_save);
    o["declares_load"] = Value(c.declares_load);
    json::Array members;
    for (const Member& mem : c.members) {
      json::Object mo;
      mo["name"] = Value(mem.name);
      mo["line"] = Value(mem.line);
      mo["has_init"] = Value(mem.has_init);
      json::Array type;
      for (const std::string& t : mem.type_tokens) type.push_back(Value(t));
      mo["type"] = Value(std::move(type));
      members.push_back(Value(std::move(mo)));
    }
    o["members"] = Value(std::move(members));
    classes.push_back(Value(std::move(o)));
  }
  root["classes"] = Value(std::move(classes));

  root["snapshot_bodies"] = ident_map_to_json(s.snapshot_bodies);
  root["ctor_inits"] = ident_map_to_json(s.ctor_inits);
  root["unordered_names"] = strings_to_json(s.unordered_names);
  root["float_names"] = strings_to_json(s.float_names);

  json::Array fors;
  for (const RangeFor& rf : s.range_fors) {
    json::Object o;
    o["line"] = Value(rf.line);
    o["target"] = Value(rf.target);
    fors.push_back(Value(std::move(o)));
  }
  root["range_fors"] = Value(std::move(fors));

  json::Array rngs;
  for (const RngSite& r : s.rng_sites) {
    json::Object o;
    o["line"] = Value(r.line);
    o["seed_derived"] = Value(r.seed_derived);
    o["args"] = Value(r.args);
    rngs.push_back(Value(std::move(o)));
  }
  root["rng_sites"] = Value(std::move(rngs));

  json::Array reduces;
  for (const ReduceSite& r : s.reduce_sites) {
    json::Object o;
    o["line"] = Value(r.line);
    o["target"] = Value(r.target);
    o["op"] = Value(r.op);
    o["acc"] = Value(r.acc);
    o["float_evidence"] = Value(r.float_evidence);
    reduces.push_back(Value(std::move(o)));
  }
  root["reduce_sites"] = Value(std::move(reduces));

  json::Object markers;
  json::Object allows;
  for (const auto& [line, ids] : s.markers.allows) {
    allows[std::to_string(line)] = strings_to_json(ids);
  }
  markers["allows"] = Value(std::move(allows));
  markers["snapshot_exempt"] = lines_to_json(s.markers.snapshot_exempt);
  json::Array merrs;
  for (const std::string& e : s.markers.errors) merrs.push_back(Value(e));
  markers["errors"] = Value(std::move(merrs));
  root["markers"] = Value(std::move(markers));

  json::Array findings;
  for (const TokenFinding& f : s.token_findings) {
    json::Object o;
    o["line"] = Value(f.line);
    o["rule"] = Value(f.rule);
    o["message"] = Value(f.message);
    findings.push_back(Value(std::move(o)));
  }
  root["token_findings"] = Value(std::move(findings));

  return json::dump(Value(std::move(root)), 0);
}

bool summary_from_json(const std::string& body, const std::string& path,
                       FileSummary& out) {
  try {
    const Value root = json::parse(body);
    const json::Object& o = root.as_object();
    const Value* version = o.find("version");
    const Value* p = o.find("path");
    if (version == nullptr || version->as_int() != kFormatVersion ||
        p == nullptr || p->as_string() != path) {
      return false;
    }
    FileSummary s;
    s.path = path;
    for (const Value& v : o.at("includes").as_array()) {
      const json::Object& io = v.as_object();
      s.includes.push_back({static_cast<int>(io.at("line").as_int()),
                            io.at("target").as_string()});
    }
    for (const Value& v : o.at("classes").as_array()) {
      const json::Object& co = v.as_object();
      ClassInfo c;
      c.name = co.at("name").as_string();
      c.line = static_cast<int>(co.at("line").as_int());
      c.declares_save = co.at("declares_save").as_bool();
      c.declares_load = co.at("declares_load").as_bool();
      for (const Value& mv : co.at("members").as_array()) {
        const json::Object& mo = mv.as_object();
        Member mem;
        mem.name = mo.at("name").as_string();
        mem.line = static_cast<int>(mo.at("line").as_int());
        mem.has_init = mo.at("has_init").as_bool();
        for (const Value& t : mo.at("type").as_array()) {
          mem.type_tokens.push_back(t.as_string());
        }
        c.members.push_back(std::move(mem));
      }
      s.classes.push_back(std::move(c));
    }
    s.snapshot_bodies = ident_map_from_json(o.at("snapshot_bodies"));
    s.ctor_inits = ident_map_from_json(o.at("ctor_inits"));
    s.unordered_names = strings_from_json(o.at("unordered_names"));
    s.float_names = strings_from_json(o.at("float_names"));
    for (const Value& v : o.at("range_fors").as_array()) {
      const json::Object& fo = v.as_object();
      s.range_fors.push_back({static_cast<int>(fo.at("line").as_int()),
                              fo.at("target").as_string()});
    }
    for (const Value& v : o.at("rng_sites").as_array()) {
      const json::Object& ro = v.as_object();
      RngSite site;
      site.line = static_cast<int>(ro.at("line").as_int());
      site.seed_derived = ro.at("seed_derived").as_bool();
      site.args = ro.at("args").as_string();
      s.rng_sites.push_back(std::move(site));
    }
    for (const Value& v : o.at("reduce_sites").as_array()) {
      const json::Object& ro = v.as_object();
      ReduceSite site;
      site.line = static_cast<int>(ro.at("line").as_int());
      site.target = ro.at("target").as_string();
      site.op = ro.at("op").as_string();
      site.acc = ro.at("acc").as_string();
      site.float_evidence = ro.at("float_evidence").as_bool();
      s.reduce_sites.push_back(std::move(site));
    }
    const json::Object& markers = o.at("markers").as_object();
    for (const auto& [line, ids] : markers.at("allows").as_object()) {
      s.markers.allows[std::stoi(line)] = strings_from_json(ids);
    }
    s.markers.snapshot_exempt =
        lines_from_json(markers.at("snapshot_exempt"));
    for (const Value& e : markers.at("errors").as_array()) {
      s.markers.errors.push_back(e.as_string());
    }
    for (const Value& v : o.at("token_findings").as_array()) {
      const json::Object& fo = v.as_object();
      s.token_findings.push_back({static_cast<int>(fo.at("line").as_int()),
                                  fo.at("rule").as_string(),
                                  fo.at("message").as_string()});
    }
    out = std::move(s);
    return true;
  } catch (const std::exception&) {
    return false;  // malformed shard == cache miss, never an error
  }
}

std::uint64_t summary_cache_key(const std::string& path,
                                const std::string& content) {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a 64 offset basis
  const auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001B3ULL;
    }
    h ^= 0xFF;  // field separator, outside any byte value mixed above
    h *= 0x100000001B3ULL;
  };
  mix("htpb-lint-summary-v" + std::to_string(kFormatVersion));
  mix(path);
  mix(content);
  return h;
}

}  // namespace htpb::lint
