// The one error shape of config validation: every config type's
// validate() throws std::invalid_argument whose message opens with the
// offending member's name, and a caller that reaches a config through a
// member prepends that path with check_at ("guard." + "confirm_epochs
// must be >= 1").
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace htpb {

/// One config rule: throws std::invalid_argument(what) unless `holds`.
/// Stated positively, a range rule also rejects NaN.
inline void require(bool holds, const char* what) {
  if (!holds) throw std::invalid_argument(what);
}

/// Runs `check` (a validate() call) and rethrows its
/// std::invalid_argument with `path` prepended to the message.
template <class Check>
void check_at(std::string_view path, Check&& check) {
  try {
    check();
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string(path) + e.what());
  }
}

}  // namespace htpb
