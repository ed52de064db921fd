// Minimal JSON value type, parser and serializer -- the one place the
// repo formats or reads JSON. ScenarioSpec (de)serialization, the
// htpb_run result artifacts and the bench JSON emitters all go through
// here instead of hand-rolling escaping and number formatting.
//
// Contracts the scenario layer leans on:
//  - Objects preserve insertion order, so dumping is deterministic and a
//    parse -> dump -> parse round trip is exact.
//  - Numbers keep their parsed flavour: an integer token becomes kInt
//    (exact int64), everything else kDouble. Doubles are emitted with the
//    shortest decimal form that parses back bit-identically, and an
//    integral double keeps a ".0" marker so its type survives the trip.
//  - NaN and infinities have no JSON spelling; dump() emits `null` for
//    them (tests/common/json_test.cpp locks this).
//  - parse() is strict: full input consumed, no comments, no trailing
//    commas; errors carry the byte offset.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace htpb::json {

class Value;

using Array = std::vector<Value>;

/// Insertion-ordered string -> Value map. Linear lookup: spec and result
/// objects hold tens of keys, and deterministic order matters more than
/// O(1) access.
class Object {
 public:
  using Member = std::pair<std::string, Value>;

  [[nodiscard]] const Value* find(std::string_view key) const noexcept;
  [[nodiscard]] Value* find(std::string_view key) noexcept;
  /// find() for a key that must be there: throws std::runtime_error
  /// naming `key` when it is absent.
  [[nodiscard]] const Value& at(std::string_view key) const;
  [[nodiscard]] bool contains(std::string_view key) const noexcept {
    return find(key) != nullptr;
  }
  /// Fetches or inserts (at the end) the member named `key`.
  Value& operator[](std::string_view key);

  [[nodiscard]] std::size_t size() const noexcept { return members_.size(); }
  [[nodiscard]] bool empty() const noexcept { return members_.empty(); }
  [[nodiscard]] auto begin() const noexcept { return members_.begin(); }
  [[nodiscard]] auto end() const noexcept { return members_.end(); }
  [[nodiscard]] auto begin() noexcept { return members_.begin(); }
  [[nodiscard]] auto end() noexcept { return members_.end(); }

  friend bool operator==(const Object&, const Object&);

 private:
  std::vector<Member> members_;
};

class Value {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Value() noexcept : type_(Type::kNull) {}
  Value(std::nullptr_t) noexcept : type_(Type::kNull) {}
  Value(bool b) noexcept : type_(Type::kBool), bool_(b) {}
  Value(int i) noexcept : type_(Type::kInt), int_(i) {}
  Value(long i) noexcept : type_(Type::kInt), int_(i) {}
  Value(long long i) noexcept : type_(Type::kInt), int_(i) {}
  Value(unsigned u) noexcept : type_(Type::kInt), int_(u) {}
  Value(double d) noexcept : type_(Type::kDouble), double_(d) {}
  Value(const char* s) : type_(Type::kString), string_(s) {}
  Value(std::string_view s) : type_(Type::kString), string_(s) {}
  Value(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Value(Array a) : type_(Type::kArray), array_(std::move(a)) {}
  Value(Object o) : type_(Type::kObject), object_(std::move(o)) {}

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::kBool; }
  [[nodiscard]] bool is_int() const noexcept { return type_ == Type::kInt; }
  [[nodiscard]] bool is_double() const noexcept {
    return type_ == Type::kDouble;
  }
  [[nodiscard]] bool is_number() const noexcept {
    return is_int() || is_double();
  }
  [[nodiscard]] bool is_string() const noexcept {
    return type_ == Type::kString;
  }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::kObject;
  }

  /// Checked accessors; throw std::runtime_error on a type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;
  /// Accepts kInt (converted) and kDouble.
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] Array& as_array();
  [[nodiscard]] const Object& as_object() const;
  [[nodiscard]] Object& as_object();

  friend bool operator==(const Value&, const Value&);

 private:
  Type type_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// JSON string escaping of `s` -- quotes, backslashes and control
/// characters (as \uXXXX) -- WITHOUT the surrounding quotes.
[[nodiscard]] std::string escape(std::string_view s);

/// `escape` plus the surrounding quotes: ready to splice into output.
[[nodiscard]] std::string quote(std::string_view s);

/// Shortest decimal representation that strtod's back to the same bits.
/// Integral finite values keep a ".0" so the token stays a double on
/// re-parse; NaN/Inf become "null" (JSON has no spelling for them).
[[nodiscard]] std::string format_double(double d);

/// Serializes with `indent` spaces per nesting level; `indent` == 0 packs
/// everything onto one line. Deterministic: object members appear in
/// insertion order.
[[nodiscard]] std::string dump(const Value& v, int indent = 2);

/// Strict parse of the complete input. Throws std::runtime_error with the
/// byte offset on malformed input or trailing garbage.
[[nodiscard]] Value parse(std::string_view text);

/// `parse` over a file's contents; error messages carry the path.
[[nodiscard]] Value parse_file(const std::string& path);

/// Writes `dump(v, indent)` plus a trailing newline to `path`; throws
/// std::runtime_error when the file cannot be written.
void dump_file(const Value& v, const std::string& path, int indent = 2);

/// Strict-consumption view over an Object: every key must be read exactly
/// through this reader, and finish() rejects whatever was not consumed --
/// the unknown-key firewall of the spec schema. `path` prefixes error
/// messages ("scenario.system: unknown key ...").
class ObjectReader {
 public:
  ObjectReader(const Object& object, std::string path);

  /// Null when absent; marks the key consumed when present.
  [[nodiscard]] const Value* optional(std::string_view key);
  /// Throws when absent.
  [[nodiscard]] const Value& require(std::string_view key);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Throws std::runtime_error naming every key never consumed.
  void finish() const;

  /// Error with this reader's path prefixed (for custom member parsing).
  [[noreturn]] void fail(const std::string& message) const;

 private:
  const Object& object_;
  std::string path_;
  std::vector<bool> consumed_;
};

}  // namespace htpb::json
