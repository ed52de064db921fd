// Shared helpers for the checkpointing layer (ARCHITECTURE.md §11).
//
// Snapshots are JSON trees built with common/json. Two conventions keep a
// save -> dump -> parse -> load round trip bit-identical:
//  - doubles ride on json's shortest-round-trip formatting (exact);
//  - 64-bit integers are stored as decimal strings, because a JSON number
//    read back through double parsing would lose bits above 2^53 (Rng
//    state words and packet tags use the full width).
//
// Records with a field list (common/fields.hpp) go through the snapshot
// codec, to_snapshot / from_snapshot: an object holding every field,
// u64s as decimal strings, enums as their integer values, vectors as
// arrays and RunningStats as their raw accumulators. Loads look every
// key up with json::Object::at, so a truncated snapshot throws naming the
// missing key.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>

#include "common/fields.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"

namespace htpb::common {

/// A 64-bit unsigned value as a JSON decimal string (lossless).
[[nodiscard]] inline json::Value ju64(std::uint64_t v) {
  return json::Value(std::to_string(v));
}

/// Inverse of ju64. Throws std::runtime_error on a malformed field.
[[nodiscard]] inline std::uint64_t pu64(const json::Value& v) {
  const std::string& s = v.as_string();
  std::size_t used = 0;
  const std::uint64_t out = std::stoull(s, &used);
  if (used != s.size()) {
    throw std::runtime_error("snapshot: malformed u64 field: " + s);
  }
  return out;
}

template <class T>
inline constexpr bool kIsU64 = std::is_unsigned_v<T> && sizeof(T) == 8;

template <class T>
[[nodiscard]] json::Value to_snapshot(const T& v) {
  if constexpr (HasFields<T>) {
    json::Object o;
    T::fields(v, [&o](const char* key, const auto& field) {
      o[key] = to_snapshot(field);
    });
    return json::Value(std::move(o));
  } else if constexpr (std::is_same_v<T, RunningStat>) {
    return to_snapshot(v.raw());
  } else if constexpr (kIsVector<T>) {
    json::Array a;
    a.reserve(v.size());
    for (const auto& e : v) a.push_back(to_snapshot(e));
    return json::Value(std::move(a));
  } else if constexpr (std::is_enum_v<T>) {
    return json::Value(static_cast<long long>(v));
  } else if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, double>) {
    return json::Value(v);
  } else if constexpr (kIsU64<T>) {
    return ju64(v);
  } else {
    static_assert(std::is_integral_v<T> && sizeof(T) <= 4,
                  "no snapshot encoding for this field type");
    return json::Value(static_cast<long long>(v));
  }
}

template <class T>
void from_snapshot(const json::Value& v, T& out) {
  if constexpr (HasFields<T>) {
    const json::Object& o = v.as_object();
    T::fields(out, [&o](const char* key, auto& field) {
      from_snapshot(o.at(key), field);
    });
  } else if constexpr (std::is_same_v<T, RunningStat>) {
    RunningStat::Raw raw;
    from_snapshot(v, raw);
    out.set_raw(raw);
  } else if constexpr (kIsVector<T>) {
    const json::Array& a = v.as_array();
    out.assign(a.size(), typename T::value_type{});
    for (std::size_t i = 0; i < a.size(); ++i) from_snapshot(a[i], out[i]);
  } else if constexpr (std::is_enum_v<T>) {
    out = static_cast<T>(v.as_int());
  } else if constexpr (std::is_same_v<T, bool>) {
    out = v.as_bool();
  } else if constexpr (std::is_same_v<T, double>) {
    out = v.as_double();
  } else if constexpr (kIsU64<T>) {
    out = pu64(v);
  } else {
    out = static_cast<T>(v.as_int());
  }
}

}  // namespace htpb::common
