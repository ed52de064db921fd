// Field lists: the one place a serialized struct names its members.
//
// A struct opts in with a static member template that hands every member,
// with its JSON key, to a visitor -- in the order the JSON writes them,
// because json::Object dumps in insertion order:
//
//   template <class S, class F>
//   static void fields(S& s, F&& f) {
//     f("width", s.width);
//     f("height", s.height);
//   }
//
// S is the struct or a const one, so one list drives both directions and
// a member written but never read back cannot happen. The codecs that
// walk the lists are common/snapshot.hpp (checkpoints) and
// scenario/spec_codec.hpp (spec files). A visitor may receive a trailing
// marker argument after the member (the spec codec's scenario::kRequired).
#pragma once

#include <optional>
#include <vector>

namespace htpb::common {

/// Accepts any field-list call; only used to detect a list.
struct AnyFieldVisitor {
  template <class... Args>
  void operator()(Args&&... /*unused*/) const noexcept {}
};

/// True for structs that declare a field list.
template <class S>
concept HasFields = requires(S& s) { S::fields(s, AnyFieldVisitor{}); };

/// Member-type tests the codecs branch on.
template <class T>
inline constexpr bool kIsVector = false;
template <class T, class A>
inline constexpr bool kIsVector<std::vector<T, A>> = true;

template <class T>
inline constexpr bool kIsOptional = false;
template <class T>
inline constexpr bool kIsOptional<std::optional<T>> = true;

}  // namespace htpb::common
