#include "common/json.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/atomic_file.hpp"

namespace htpb::json {

namespace {

[[noreturn]] void type_error(const char* wanted, Value::Type got) {
  static constexpr const char* kNames[] = {"null",   "bool",  "int",
                                           "double", "string", "array",
                                           "object"};
  throw std::runtime_error(std::string("json: expected ") + wanted +
                           ", got " + kNames[static_cast<int>(got)]);
}

}  // namespace

// ---------------------------------------------------------------- Object

const Value* Object::find(std::string_view key) const noexcept {
  for (const Member& m : members_) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

Value* Object::find(std::string_view key) noexcept {
  for (Member& m : members_) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

const Value& Object::at(std::string_view key) const {
  if (const Value* v = find(key)) return *v;
  throw std::runtime_error("missing key \"" + std::string(key) + "\"");
}

Value& Object::operator[](std::string_view key) {
  if (Value* v = find(key)) return *v;
  members_.emplace_back(std::string(key), Value());
  return members_.back().second;
}

bool operator==(const Object& a, const Object& b) {
  return a.members_ == b.members_;
}

// ----------------------------------------------------------------- Value

bool Value::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

std::int64_t Value::as_int() const {
  if (type_ != Type::kInt) type_error("int", type_);
  return int_;
}

double Value::as_double() const {
  if (type_ == Type::kInt) return static_cast<double>(int_);
  if (type_ != Type::kDouble) type_error("number", type_);
  return double_;
}

const std::string& Value::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return string_;
}

const Array& Value::as_array() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return array_;
}

Array& Value::as_array() {
  if (type_ != Type::kArray) type_error("array", type_);
  return array_;
}

const Object& Value::as_object() const {
  if (type_ != Type::kObject) type_error("object", type_);
  return object_;
}

Object& Value::as_object() {
  if (type_ != Type::kObject) type_error("object", type_);
  return object_;
}

bool operator==(const Value& a, const Value& b) {
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case Value::Type::kNull: return true;
    case Value::Type::kBool: return a.bool_ == b.bool_;
    case Value::Type::kInt: return a.int_ == b.int_;
    case Value::Type::kDouble:
      // Bit-exact round trips are the contract; NaN == NaN here so a
      // value containing NaN still compares equal to itself.
      return (a.double_ == b.double_) ||
             (std::isnan(a.double_) && std::isnan(b.double_));
    case Value::Type::kString: return a.string_ == b.string_;
    case Value::Type::kArray: return a.array_ == b.array_;
    case Value::Type::kObject: return a.object_ == b.object_;
  }
  return false;
}

// ------------------------------------------------------------ formatting

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;  // UTF-8 bytes pass through untouched
        }
    }
  }
  return out;
}

std::string quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  out += escape(s);
  out += '"';
  return out;
}

std::string format_double(double d) {
  if (!std::isfinite(d)) return "null";
  char buf[40];
  // Shortest precision that survives a round trip; 17 always does.
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  std::string out = buf;
  // Keep the token a double on re-parse ("3" would come back as kInt).
  if (out.find_first_of(".eE") == std::string::npos) out += ".0";
  return out;
}

namespace {

void dump_to(const Value& v, int indent, int depth, std::string& out) {
  const auto newline = [&](int d) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (v.type()) {
    case Value::Type::kNull: out += "null"; break;
    case Value::Type::kBool: out += v.as_bool() ? "true" : "false"; break;
    case Value::Type::kInt: out += std::to_string(v.as_int()); break;
    case Value::Type::kDouble: out += format_double(v.as_double()); break;
    case Value::Type::kString: out += quote(v.as_string()); break;
    case Value::Type::kArray: {
      const Array& a = v.as_array();
      if (a.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (i > 0) out += indent > 0 ? "," : ", ";
        newline(depth + 1);
        dump_to(a[i], indent, depth + 1, out);
      }
      newline(depth);
      out += ']';
      break;
    }
    case Value::Type::kObject: {
      const Object& o = v.as_object();
      if (o.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [key, member] : o) {
        if (!first) out += indent > 0 ? "," : ", ";
        first = false;
        newline(depth + 1);
        out += quote(key);
        out += ": ";
        dump_to(member, indent, depth + 1, out);
      }
      newline(depth);
      out += '}';
      break;
    }
  }
}

}  // namespace

std::string dump(const Value& v, int indent) {
  std::string out;
  dump_to(v, indent, 0, out);
  return out;
}

// --------------------------------------------------------------- parsing

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value run() {
    Value v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after JSON value");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 200;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at offset " +
                             std::to_string(pos_));
  }

  /// RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  [[nodiscard]] static bool is_json_number(const std::string& t) noexcept {
    std::size_t i = 0;
    if (i < t.size() && t[i] == '-') ++i;
    if (i >= t.size() || t[i] < '0' || t[i] > '9') return false;
    if (t[i] == '0') {
      ++i;  // no leading zeros
    } else {
      while (i < t.size() && t[i] >= '0' && t[i] <= '9') ++i;
    }
    if (i < t.size() && t[i] == '.') {
      ++i;
      if (i >= t.size() || t[i] < '0' || t[i] > '9') return false;
      while (i < t.size() && t[i] >= '0' && t[i] <= '9') ++i;
    }
    if (i < t.size() && (t[i] == 'e' || t[i] == 'E')) {
      ++i;
      if (i < t.size() && (t[i] == '+' || t[i] == '-')) ++i;
      if (i >= t.size() || t[i] < '0' || t[i] > '9') return false;
      while (i < t.size() && t[i] >= '0' && t[i] <= '9') ++i;
    }
    return i == t.size();
  }

  [[nodiscard]] bool eof() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const noexcept { return text_[pos_]; }

  void skip_ws() {
    while (!eof()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') return;
      ++pos_;
    }
  }

  void expect(char c) {
    if (eof() || peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Value value() {
    if (++depth_ > kMaxDepth) fail("nesting too deep");
    skip_ws();
    if (eof()) fail("unexpected end of input");
    Value result;
    switch (peek()) {
      case '{': result = object(); break;
      case '[': result = array(); break;
      case '"': result = Value(string()); break;
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        result = Value(true);
        break;
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        result = Value(false);
        break;
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        result = Value(nullptr);
        break;
      default: result = number(); break;
    }
    --depth_;
    return result;
  }

  Value object() {
    expect('{');
    Object o;
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return Value(std::move(o));
    }
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      if (o.contains(key)) fail("duplicate key \"" + key + "\"");
      o[key] = value();
      skip_ws();
      if (eof()) fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Value(std::move(o));
    }
  }

  Value array() {
    expect('[');
    Array a;
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return Value(std::move(a));
    }
    for (;;) {
      a.push_back(value());
      skip_ws();
      if (eof()) fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Value(std::move(a));
    }
  }

  std::string string() {
    if (eof() || peek() != '"') fail("expected string");
    ++pos_;
    std::string out;
    for (;;) {
      if (eof()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (eof()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += unicode_escape(); break;
        default: fail("invalid escape");
      }
    }
  }

  std::string unicode_escape() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid \\u escape");
    }
    // UTF-8 encode the code point (surrogate pairs are passed through as
    // two separate 3-byte sequences; the specs never use them).
    std::string out;
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
    return out;
  }

  Value number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    bool integral = true;
    while (!eof()) {
      const char c = peek();
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    // Strictness promise of json.hpp: only RFC 8259 number grammar, so a
    // leading '+', a bare or trailing '.', leading zeros and other
    // strtod-isms are rejected here rather than silently accepted.
    if (!is_json_number(token)) fail("invalid number");
    errno = 0;
    if (integral) {
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        return Value(static_cast<std::int64_t>(v));
      }
      // Out of int64 range: fall through to double.
    }
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("invalid number");
    return Value(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).run(); }

Value parse_file(const std::string& path) {
  // read_file names the path and the errno string on open/read failure;
  // parse errors get the path prefixed onto their byte-offset message.
  // Either way a bad file is diagnosed by name, never as a bare error.
  const std::string text = common::read_file(path);
  try {
    return parse(text);
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

void dump_file(const Value& v, const std::string& path, int indent) {
  // Atomic (temp + fsync + rename): a tool killed mid-dump never leaves
  // a truncated JSON artifact behind for a merger to choke on.
  common::atomic_write_file(path, dump(v, indent) + "\n");
}

// ---------------------------------------------------------- ObjectReader

ObjectReader::ObjectReader(const Object& object, std::string path)
    : object_(object), path_(std::move(path)),
      consumed_(object.size(), false) {}

const Value* ObjectReader::optional(std::string_view key) {
  std::size_t i = 0;
  for (const auto& [name, value] : object_) {
    if (name == key) {
      consumed_[i] = true;
      return &value;
    }
    ++i;
  }
  return nullptr;
}

const Value& ObjectReader::require(std::string_view key) {
  const Value* v = optional(key);
  if (v == nullptr) fail("missing required key \"" + std::string(key) + "\"");
  return *v;
}

void ObjectReader::finish() const {
  std::string unknown;
  std::size_t i = 0;
  for (const auto& [name, value] : object_) {
    if (!consumed_[i]) {
      if (!unknown.empty()) unknown += ", ";
      unknown += "\"" + name + "\"";
    }
    ++i;
  }
  if (!unknown.empty()) fail("unknown key(s): " + unknown);
}

void ObjectReader::fail(const std::string& message) const {
  throw std::runtime_error(path_ + ": " + message);
}

}  // namespace htpb::json
