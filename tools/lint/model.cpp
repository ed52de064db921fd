#include "lint/model.hpp"

#include <algorithm>

namespace htpb::lint {

namespace {

const std::set<std::string>& unordered_keywords() {
  static const std::set<std::string> kw = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  return kw;
}

bool is_ident(const Token& t, const char* text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

/// Names declared with an unordered container type: members, locals,
/// parameters. One level of `using Alias = std::unordered_...` is
/// resolved so `Alias foo;` registers `foo` too.
std::set<std::string> collect_unordered_names(const std::vector<Token>& ts) {
  std::set<std::string> aliases;
  for (std::size_t i = 0; i + 2 < ts.size(); ++i) {
    if (!is_ident(ts[i], "using") || ts[i + 1].kind != TokKind::kIdent ||
        ts[i + 2].text != "=") {
      continue;
    }
    for (std::size_t j = i + 3; j < ts.size() && ts[j].text != ";"; ++j) {
      if (ts[j].kind == TokKind::kIdent &&
          unordered_keywords().count(ts[j].text)) {
        aliases.insert(ts[i + 1].text);
        break;
      }
    }
  }

  std::set<std::string> names;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const bool container = ts[i].kind == TokKind::kIdent &&
                           (unordered_keywords().count(ts[i].text) ||
                            aliases.count(ts[i].text));
    if (!container) continue;
    std::size_t j = i + 1;
    if (j < ts.size() && ts[j].text == "<") {
      int depth = 0;
      for (; j < ts.size(); ++j) {
        if (ts[j].text == "<") ++depth;
        if (ts[j].text == ">" && --depth == 0) {
          ++j;
          break;
        }
      }
    }
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

/// Range-for geometry: the head span, the ':' position, and the body
/// extent (brace block or single statement) so accumulation inside the
/// loop can be attributed to the iterated container.
struct RangeForSpan {
  RangeFor rf;
  std::size_t body_begin = 0;  // token index just past ')' or '{'
  std::size_t body_end = 0;    // one past the last body token
};

std::vector<RangeForSpan> collect_range_for_spans(
    const std::vector<Token>& ts) {
  std::vector<RangeForSpan> out;
  for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
    if (!is_ident(ts[i], "for") || ts[i + 1].text != "(") continue;
    // Find the range-for ':' at paren depth 1; a ';' there first means a
    // classic for loop. '[' tracking keeps structured bindings inert.
    std::size_t colon = 0;
    std::size_t close = 0;
    int paren = 0;
    int bracket = 0;
    for (std::size_t j = i + 1; j < ts.size(); ++j) {
      const std::string& t = ts[j].text;
      if (t == "(") ++paren;
      if (t == ")" && --paren == 0) {
        close = j;
        break;
      }
      if (t == "[") ++bracket;
      if (t == "]") --bracket;
      if (paren == 1 && bracket == 0) {
        if (t == ";") break;
        if (t == ":" && colon == 0) colon = j;
      }
    }
    if (colon == 0 || close == 0) continue;
    RangeForSpan span;
    span.rf.line = ts[i].line;
    // Accept only a plain identifier / member-access chain; anything
    // else (calls, indexing) is not an iteration over the container
    // object itself.
    bool chain = true;
    std::string last_ident;
    for (std::size_t j = colon + 1; j < close; ++j) {
      const Token& t = ts[j];
      if (t.kind == TokKind::kIdent) {
        last_ident = t.text;
      } else if (t.text != "." && t.text != "->" && t.text != "::") {
        chain = false;
        break;
      }
    }
    if (chain && !last_ident.empty()) span.rf.target = last_ident;

    // Body extent: `{ ... }` block or the single statement up to ';'.
    std::size_t b = close + 1;
    if (b < ts.size() && ts[b].text == "{") {
      int depth = 0;
      std::size_t e = b;
      for (; e < ts.size(); ++e) {
        if (ts[e].text == "{") ++depth;
        if (ts[e].text == "}" && --depth == 0) break;
      }
      span.body_begin = b + 1;
      span.body_end = e;
    } else {
      std::size_t e = b;
      while (e < ts.size() && ts[e].text != ";") ++e;
      span.body_begin = b;
      span.body_end = e;
    }
    out.push_back(std::move(span));
  }
  return out;
}

/// Rng / mt19937 constructions with an argument list. Function
/// declarations are told apart from constructions by their parameter
/// lists: two adjacent identifier tokens ("uint64_t seed") never occur in
/// an expression.
std::vector<RngSite> collect_rng_sites(const std::vector<Token>& ts) {
  static const std::set<std::string> rng_types = {"Rng", "mt19937",
                                                  "mt19937_64"};
  std::vector<RngSite> out;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ts[i].kind != TokKind::kIdent || !rng_types.count(ts[i].text)) {
      continue;
    }
    if (i > 0) {
      const std::string& p = ts[i - 1].text;
      // Type in a declaration head we never treat as a construction:
      // `class Rng`, `explicit Rng(...)` (the ctor itself), `~Rng`,
      // `x.rng()`-style member access, `template <typename Rng>`.
      if (p == "class" || p == "struct" || p == "explicit" || p == "~" ||
          p == "." || p == "->" || p == "typename" || p == "<") {
        continue;
      }
    }
    std::size_t j = i + 1;
    if (j < ts.size() && ts[j].kind == TokKind::kIdent) ++j;  // Rng name(...)
    if (j >= ts.size() || (ts[j].text != "(" && ts[j].text != "{")) continue;
    // `Rng f()` with empty parens is the most-vexing-parse ambiguity: a
    // function declaration, or a default construction whose seed is the
    // documented constant. Neither is a provenance finding.
    if (j + 1 < ts.size() &&
        (ts[j + 1].text == ")" || ts[j + 1].text == "}")) {
      continue;
    }
    const std::string open = ts[j].text;
    const std::string shut = open == "(" ? ")" : "}";
    int depth = 0;
    std::vector<const Token*> args;
    std::size_t k = j;
    for (; k < ts.size(); ++k) {
      if (ts[k].text == open) ++depth;
      if (ts[k].text == shut && --depth == 0) break;
      if (k > j) args.push_back(&ts[k]);
    }
    if (k >= ts.size()) continue;  // unbalanced; degrade to no finding

    // Adjacent identifiers => a parameter list => a function declaration.
    bool declaration = false;
    for (std::size_t a = 0; a + 1 < args.size(); ++a) {
      if (args[a]->kind == TokKind::kIdent &&
          args[a + 1]->kind == TokKind::kIdent) {
        declaration = true;
        break;
      }
    }
    if (declaration) continue;

    RngSite site;
    site.line = ts[i].line;
    for (const Token* a : args) {
      if (!site.args.empty()) site.args += ' ';
      site.args += a->text;
      if (a->kind != TokKind::kIdent) continue;
      std::string lower = a->text;
      std::transform(lower.begin(), lower.end(), lower.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      if (lower.find("seed") != std::string::npos ||
          lower.find("rng") != std::string::npos) {
        site.seed_derived = true;
      }
    }
    if (site.args.size() > 48) site.args = site.args.substr(0, 45) + "...";
    out.push_back(std::move(site));
  }
  return out;
}

std::vector<ReduceSite> collect_reduce_sites(
    const std::vector<Token>& ts, const std::vector<RangeForSpan>& fors) {
  std::set<std::tuple<int, std::string, std::string>> seen;
  std::vector<ReduceSite> out;
  const auto add = [&](ReduceSite site) {
    if (seen.emplace(site.line, site.target, site.op).second) {
      out.push_back(std::move(site));
    }
  };
  // `+=` inside a range-for body ("+" and "=" lex separately). Nested
  // loops attribute inner accumulations to the outer loop too, which is
  // correct: the outer iteration order still taints the sum. The
  // accumulator is the identifier just left of the '+' (the last link of
  // a member chain); a non-identifier target (arr[i] +=) stays empty and
  // the rule cannot prove it floating-point, so it stays silent.
  for (const RangeForSpan& span : fors) {
    if (span.rf.target.empty()) continue;
    for (std::size_t j = span.body_begin; j + 1 < span.body_end; ++j) {
      if (ts[j].text != "+" || ts[j + 1].text != "=") continue;
      ReduceSite site;
      site.line = ts[j].line;
      site.target = span.rf.target;
      site.op = "+=";
      if (j > span.body_begin && ts[j - 1].kind == TokKind::kIdent) {
        site.acc = ts[j - 1].text;
      }
      add(std::move(site));
    }
  }
  // std::accumulate / std::reduce over container.begin(). Floating-point
  // evidence: a float literal among the arguments (the init argument
  // fixes the accumulation type -- an int init sums in int, which is
  // order-insensitive).
  for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
    if (ts[i].kind != TokKind::kIdent ||
        (ts[i].text != "accumulate" && ts[i].text != "reduce") ||
        ts[i + 1].text != "(") {
      continue;
    }
    // First argument of the form `X.begin(` / `X.cbegin(`.
    if (!(i + 4 < ts.size() && ts[i + 2].kind == TokKind::kIdent &&
          (ts[i + 3].text == "." || ts[i + 3].text == "->") &&
          (is_ident(ts[i + 4], "begin") || is_ident(ts[i + 4], "cbegin")))) {
      continue;
    }
    ReduceSite site;
    site.line = ts[i].line;
    site.target = ts[i + 2].text;
    site.op = ts[i].text;
    int depth = 0;
    for (std::size_t j = i + 1; j < ts.size(); ++j) {
      if (ts[j].text == "(") ++depth;
      if (ts[j].text == ")" && --depth == 0) break;
      if (ts[j].kind == TokKind::kNumber) {
        const std::string& num = ts[j].text;
        const bool hex = num.rfind("0x", 0) == 0 || num.rfind("0X", 0) == 0;
        if (num.find('.') != std::string::npos ||
            (!hex && (num.find('f') != std::string::npos ||
                      num.find('F') != std::string::npos))) {
          site.float_evidence = true;
        }
      }
    }
    add(std::move(site));
  }
  return out;
}

// ---------------------------------------------------------------------
// Scope scan: classes, members, save_state/load_state bodies.

struct Scope {
  enum Kind { kOther, kClass, kSink };
  Kind kind = kOther;
  int class_idx = -1;      // kClass: index into model.classes
  std::string sink_class;  // kSink: class the snapshot body belongs to
};

bool stmt_has_fn_name(const std::vector<Token>& stmt, const char* name) {
  for (std::size_t i = 0; i + 1 < stmt.size(); ++i) {
    if (stmt[i + 1].text == "(" && is_ident(stmt[i], name)) return true;
  }
  return false;
}

/// True when `stmt` (a block head) is `... X::save_state (` or
/// `... X::load_state (`; sets `cls` to X.
bool is_out_of_class_snapshot_head(const std::vector<Token>& stmt,
                                   std::string& cls) {
  for (std::size_t i = 2; i + 1 < stmt.size(); ++i) {
    if (stmt[i + 1].text != "(") continue;
    if (!is_ident(stmt[i], "save_state") && !is_ident(stmt[i], "load_state")) {
      continue;
    }
    if (stmt[i - 1].text == "::" && stmt[i - 2].kind == TokKind::kIdent) {
      cls = stmt[i - 2].text;
      return true;
    }
  }
  return false;
}

const std::set<std::string>& non_member_keywords() {
  static const std::set<std::string> kw = {
      "using",    "typedef", "friend",        "template", "static",
      "enum",     "class",   "struct",        "union",    "operator",
      "explicit", "virtual", "static_assert", "constexpr", "namespace"};
  return kw;
}

/// Parses one class-scope statement that ended in ';' as a data-member
/// declaration; returns false for everything that is not one.
bool parse_member(std::vector<Token> stmt, Member& out) {
  // Drop access-specifier prefixes that accumulated into the statement.
  while (stmt.size() >= 2 && stmt[1].text == ":" &&
         (is_ident(stmt[0], "public") || is_ident(stmt[0], "private") ||
          is_ident(stmt[0], "protected"))) {
    stmt.erase(stmt.begin(), stmt.begin() + 2);
  }
  while (!stmt.empty() &&
         (is_ident(stmt[0], "mutable") || is_ident(stmt[0], "inline"))) {
    stmt.erase(stmt.begin());
  }
  if (stmt.empty()) return false;
  for (const Token& t : stmt) {
    if (t.kind == TokKind::kIdent && non_member_keywords().count(t.text)) {
      return false;
    }
    if (t.text == "~") return false;  // destructor
  }

  // Truncate the initializer (everything from a top-level '='), THEN
  // decide function-vs-variable: parens inside an initializer or inside
  // template arguments must not read as a parameter list.
  int angle = 0;
  int paren = 0;
  std::size_t cut = stmt.size();
  for (std::size_t i = 0; i < stmt.size(); ++i) {
    const std::string& t = stmt[i].text;
    if (t == "<") ++angle;
    if (t == ">" && angle > 0) --angle;
    if (t == "(") ++paren;
    if (t == ")") --paren;
    if (t == "=" && angle == 0 && paren == 0) {
      cut = i;
      break;
    }
  }
  const bool has_init = cut != stmt.size();
  stmt.resize(cut);

  angle = 0;
  for (const Token& t : stmt) {
    if (t.text == "<") ++angle;
    if (t.text == ">" && angle > 0) --angle;
    if (t.text == "(" && angle == 0) return false;  // function declaration
  }

  // Strip array suffixes: `int a_[4];`.
  while (!stmt.empty() && stmt.back().text == "]") {
    int depth = 0;
    while (!stmt.empty()) {
      if (stmt.back().text == "]") ++depth;
      if (stmt.back().text == "[") --depth;
      stmt.pop_back();
      if (depth == 0) break;
    }
  }
  if (stmt.size() < 2 || stmt.back().kind != TokKind::kIdent) return false;

  out.name = stmt.back().text;
  out.line = stmt.back().line;
  out.has_init = has_init;
  out.type_tokens.clear();
  for (std::size_t i = 0; i + 1 < stmt.size(); ++i) {
    out.type_tokens.push_back(stmt[i].text);
  }
  return true;
}

/// Class-head name: the identifier after the LAST `class`/`struct`
/// keyword (skips `template <class T>` parameters). Empty for anonymous
/// or non-class heads (enum class, unions, plain blocks).
std::string class_head_name(const std::vector<Token>& stmt) {
  for (const Token& t : stmt) {
    if (is_ident(t, "enum") || is_ident(t, "union")) return "";
  }
  std::string name;
  for (std::size_t i = 0; i + 1 < stmt.size(); ++i) {
    if ((is_ident(stmt[i], "class") || is_ident(stmt[i], "struct")) &&
        stmt[i + 1].kind == TokKind::kIdent) {
      name = stmt[i + 1].text;
    }
  }
  // A '(' at top level means this was a function head returning a
  // class type (`struct Foo f() {`), not a class definition.
  if (!name.empty()) {
    int angle = 0;
    for (const Token& t : stmt) {
      if (t.text == "<") ++angle;
      if (t.text == ">" && angle > 0) --angle;
      if (t.text == "(" && angle == 0) return "";
    }
  }
  return name;
}

/// Records members initialized by a constructor mem-init-list head
/// (`Foo(...) : a_(x), b_(y)`), in-class or out-of-class. Paren-style
/// initializers only: a brace initializer in the list already truncated
/// the head at its '{', so later entries are missed -- the rule only
/// loosens (treats a member as initialized), never tightens, on a miss.
void collect_ctor_inits(const std::vector<Token>& stmt,
                        const std::string& enclosing_class, FileModel& m) {
  // The ':' introducing the init list follows the parameter list's ')'.
  std::size_t colon = 0;
  int paren = 0;
  for (std::size_t i = 1; i < stmt.size(); ++i) {
    if (stmt[i].text == "(") ++paren;
    if (stmt[i].text == ")") --paren;
    if (stmt[i].text == ":" && paren == 0 &&
        (stmt[i - 1].text == ")" || is_ident(stmt[i - 1], "noexcept"))) {
      colon = i;
      break;
    }
  }
  if (colon == 0) return;

  std::string cls = enclosing_class;
  for (std::size_t i = 2; i < colon; ++i) {
    if (stmt[i - 1].text == "::" && stmt[i].kind == TokKind::kIdent &&
        i >= 2 && stmt[i - 2].kind == TokKind::kIdent &&
        stmt[i - 2].text == stmt[i].text && i + 1 < colon &&
        stmt[i + 1].text == "(") {
      cls = stmt[i].text;  // out-of-class `X::X(...)`
    }
  }
  if (cls.empty()) return;

  std::set<std::string>& sink = m.ctor_inits[cls];
  std::size_t i = colon + 1;
  while (i < stmt.size() && stmt[i].kind == TokKind::kIdent) {
    sink.insert(stmt[i].text);
    ++i;
    if (i < stmt.size() && stmt[i].text == "(") {
      int depth = 0;
      for (; i < stmt.size(); ++i) {
        if (stmt[i].text == "(") ++depth;
        if (stmt[i].text == ")" && --depth == 0) {
          ++i;
          break;
        }
      }
    }
    if (i < stmt.size() && stmt[i].text == ",") ++i;
  }
}

bool is_member_brace_init_head(const std::vector<Token>& stmt) {
  if (stmt.empty()) return false;
  std::vector<Token> head = stmt;
  if (head.back().text == "=") head.pop_back();
  if (head.empty() || head.back().kind != TokKind::kIdent) return false;
  Member ignored;
  return parse_member(head, ignored);
}

}  // namespace

FileModel build_model(std::string path, LexedFile lexed) {
  FileModel m;
  m.path = std::move(path);
  m.unordered_names = collect_unordered_names(lexed.tokens);
  const std::vector<RangeForSpan> spans =
      collect_range_for_spans(lexed.tokens);
  m.range_fors.reserve(spans.size());
  for (const RangeForSpan& s : spans) m.range_fors.push_back(s.rf);
  m.rng_sites = collect_rng_sites(lexed.tokens);
  m.reduce_sites = collect_reduce_sites(lexed.tokens, spans);

  const std::vector<Token>& ts = lexed.tokens;
  std::vector<Scope> stack{Scope{}};  // file scope
  std::vector<Token> stmt;

  const auto active_sink = [&]() -> std::set<std::string>* {
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (it->kind == Scope::kSink) return &m.snapshot_bodies[it->sink_class];
    }
    return nullptr;
  };

  for (std::size_t i = 0; i < ts.size(); ++i) {
    const Token& t = ts[i];
    if (std::set<std::string>* sink = active_sink();
        sink != nullptr && t.kind == TokKind::kIdent) {
      sink->insert(t.text);
    }

    if (t.text == "{") {
      Scope s;
      Scope& parent = stack.back();
      collect_ctor_inits(
          stmt,
          parent.kind == Scope::kClass
              ? m.classes[static_cast<std::size_t>(parent.class_idx)].name
              : std::string(),
          m);
      std::string head_class = class_head_name(stmt);
      std::string impl_class;
      if (parent.kind == Scope::kSink) {
        // Nested block / lambda inside a serializer body: keep collecting.
        s = parent;
      } else if (!head_class.empty()) {
        s.kind = Scope::kClass;
        s.class_idx = static_cast<int>(m.classes.size());
        ClassInfo c;
        c.name = head_class;
        c.line = t.line;
        m.classes.push_back(std::move(c));
      } else if (is_out_of_class_snapshot_head(stmt, impl_class)) {
        s.kind = Scope::kSink;
        s.sink_class = impl_class;
      } else if (parent.kind == Scope::kClass) {
        ClassInfo& c = m.classes[static_cast<std::size_t>(parent.class_idx)];
        const bool save = stmt_has_fn_name(stmt, "save_state");
        const bool load = stmt_has_fn_name(stmt, "load_state");
        if (save || load) {
          // Inline save_state/load_state definition.
          s.kind = Scope::kSink;
          s.sink_class = c.name;
          c.declares_save |= save;
          c.declares_load |= load;
        } else if (is_member_brace_init_head(stmt)) {
          // Default member initializer: `int x_{0};` -- record the member
          // now, treat the braces as an inert block.
          std::vector<Token> head = stmt;
          if (head.back().text == "=") head.pop_back();
          Member mem;
          if (parse_member(head, mem)) {
            mem.has_init = true;
            c.members.push_back(std::move(mem));
          }
        }
      }
      stack.push_back(s);
      stmt.clear();
      continue;
    }
    if (t.text == "}") {
      if (stack.size() > 1) stack.pop_back();
      stmt.clear();
      continue;
    }
    if (t.text == ";") {
      if (stack.back().kind == Scope::kClass) {
        ClassInfo& c =
            m.classes[static_cast<std::size_t>(stack.back().class_idx)];
        const bool save = stmt_has_fn_name(stmt, "save_state");
        const bool load = stmt_has_fn_name(stmt, "load_state");
        if (save || load) {
          c.declares_save |= save;
          c.declares_load |= load;
        } else {
          Member mem;
          if (parse_member(stmt, mem)) c.members.push_back(std::move(mem));
        }
      }
      stmt.clear();
      continue;
    }
    stmt.push_back(t);
  }

  m.lexed = std::move(lexed);
  return m;
}

}  // namespace htpb::lint
