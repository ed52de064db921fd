// The spec codec: ScenarioSpec sections <-> JSON, driven by their field
// lists (common/fields.hpp). ScenarioSpec::to_json / from_json are thin
// wrappers over write_spec / read_spec.
//
// Writing:
//  - Sparse: a member is omitted when it equals the default-constructed
//    struct's member (operator==). Two kinds of member are
//    always written: ones marked kRequired, and every member of an array
//    element (bands, placements, arms) so each element reads on its own.
//  - std::optional members are written iff set, even when every field of
//    the value is at its default.
//  - Enums are written by name (to_string) and read back through
//    enum_from_name, integers as JSON ints (a u64 beyond the
//    int64 range is an error), nested structs as objects.
//
// Reading is strict, through json::ObjectReader: unknown keys throw,
// kRequired keys must be present, absent keys keep the default, and an
// integer must fit its member's type (no negative unsigned values, no
// silent truncation).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/fields.hpp"
#include "common/json.hpp"
#include "scenario/spec.hpp"

namespace htpb::scenario {

/// The enumerator of E whose to_string() is `name`. The enumerators are
/// walked from 0 until to_string() answers "?" (every spec enum's does
/// past its last enumerator), so names and the choice list in the error
/// come from to_string alone. Throws std::invalid_argument naming `name`
/// and every valid choice.
template <class E>
[[nodiscard]] E enum_from_name(std::string_view name) {
  std::string choices;
  for (int i = 0;; ++i) {
    const auto e = static_cast<E>(i);
    const std::string_view known = to_string(e);
    if (known == "?") break;
    if (known == name) return e;
    if (!choices.empty()) choices += '|';
    choices += known;
  }
  throw std::invalid_argument("unknown name \"" + std::string(name) +
                              "\" (" + choices + ")");
}

namespace codec_detail {

using common::kIsOptional;
using common::kIsVector;

template <class... Marks>
inline constexpr bool kRequiredMark = (std::is_same_v<Marks, Required> || ...);

template <class S>
json::Value write_struct(const S& s, bool dense, const std::string& path);

/// `v` as JSON; `path`.`key` names it in errors.
template <class T>
json::Value write_value(const T& v, const std::string& path,
                        std::string_view key) {
  if constexpr (common::HasFields<T>) {
    return write_struct(v, false, path + "." + std::string(key));
  } else if constexpr (kIsVector<T>) {
    json::Array a;
    a.reserve(v.size());
    if constexpr (common::HasFields<typename T::value_type>) {
      const std::string item_path = path + "." + std::string(key);
      for (const auto& e : v) a.push_back(write_struct(e, true, item_path));
    } else {
      for (const auto& e : v) a.push_back(write_value(e, path, key));
    }
    return json::Value(std::move(a));
  } else if constexpr (std::is_enum_v<T>) {
    return json::Value(to_string(v));
  } else if constexpr (std::is_same_v<T, bool> ||
                       std::is_same_v<T, double> ||
                       std::is_same_v<T, std::string> ||
                       std::is_same_v<T, json::Value>) {
    return json::Value(v);
  } else {
    static_assert(std::is_integral_v<T>, "no spec encoding for this type");
    if (!std::in_range<std::int64_t>(v)) {
      throw std::invalid_argument(path + "." + std::string(key) +
                                  " does not fit the JSON int64 range");
    }
    return json::Value(static_cast<long long>(v));
  }
}

/// The members of a default-constructed S, in field-list order: the
/// reference sparse writes compare against. Entry i points at a member of
/// the type the list hands over i-th, so the cast back is exact.
template <class S>
const std::vector<const void*>& default_members() {
  static const S defaults{};
  static const std::vector<const void*> members = [] {
    std::vector<const void*> out;
    S::fields(defaults, [&out](const char* /*key*/, const auto& field,
                               auto... /*mark*/) { out.push_back(&field); });
    return out;
  }();
  return members;
}

template <class S>
json::Value write_struct(const S& s, bool dense, const std::string& path) {
  const std::vector<const void*>& defaults = default_members<S>();
  json::Object o;
  std::size_t i = 0;
  S::fields(s, [&](const char* key, const auto& field, auto... mark) {
    using T = std::remove_cvref_t<decltype(field)>;
    const T& fallback = *static_cast<const T*>(defaults[i++]);
    if constexpr (kIsOptional<T>) {
      if (field.has_value()) o[key] = write_value(*field, path, key);
    } else if (dense || kRequiredMark<decltype(mark)...> ||
               !(field == fallback)) {
      o[key] = write_value(field, path, key);
    }
  });
  return json::Value(std::move(o));
}

template <class S>
void read_struct(const json::Value& v, const std::string& path, S& s);

/// Reads `j` into `out`; `r` (the enclosing object's reader) and `key`
/// name it in errors.
template <class T>
void read_value(const json::Value& j, const json::ObjectReader& r,
                std::string_view key, T& out) {
  if constexpr (common::HasFields<T>) {
    read_struct(j, r.path() + "." + std::string(key), out);
  } else if constexpr (kIsOptional<T>) {
    typename T::value_type value{};
    read_value(j, r, key, value);
    out = std::move(value);
  } else if constexpr (kIsVector<T>) {
    const json::Array& a = j.as_array();
    T items(a.size());
    const std::string item_key = std::string(key) + "[]";
    for (std::size_t i = 0; i < a.size(); ++i) {
      read_value(a[i], r, item_key, items[i]);
    }
    out = std::move(items);
  } else if constexpr (std::is_enum_v<T>) {
    const std::string& name = j.as_string();
    try {
      out = enum_from_name<T>(name);
    } catch (const std::invalid_argument& e) {
      r.fail(std::string(key) + ": " + e.what());
    }
  } else if constexpr (std::is_same_v<T, bool>) {
    out = j.as_bool();
  } else if constexpr (std::is_same_v<T, double>) {
    out = j.as_double();
  } else if constexpr (std::is_same_v<T, std::string>) {
    out = j.as_string();
  } else if constexpr (std::is_same_v<T, json::Value>) {
    out = j;
  } else {
    static_assert(std::is_integral_v<T>, "no spec encoding for this type");
    const std::int64_t raw = j.as_int();
    if (!std::in_range<T>(raw)) {
      r.fail(std::string(key) + " = " + std::to_string(raw) +
             " is outside [" + std::to_string(std::numeric_limits<T>::min()) +
             ", " + std::to_string(std::numeric_limits<T>::max()) + "]");
    }
    out = static_cast<T>(raw);
  }
}

template <class S>
void read_struct(const json::Value& v, const std::string& path, S& s) {
  json::ObjectReader r(v.as_object(), path);
  S::fields(s, [&r](const char* key, auto& field, auto... mark) {
    const json::Value* j = kRequiredMark<decltype(mark)...>
                               ? &r.require(key)
                               : r.optional(key);
    if (j != nullptr) read_value(*j, r, key, field);
  });
  r.finish();
}

}  // namespace codec_detail

/// A spec section as sparse JSON; `path` names it in errors.
template <class S>
[[nodiscard]] json::Value write_spec(const S& s, const std::string& path) {
  return codec_detail::write_struct(s, false, path);
}

/// Strict read of a spec section into `s` (members absent from `v` keep
/// their current values); errors are prefixed with `path`.
template <class S>
void read_spec(const json::Value& v, const std::string& path, S& s) {
  codec_detail::read_struct(v, path, s);
}

}  // namespace htpb::scenario
