// Strict numeric flag operands for the command-line tools (htpb_run,
// htpb_fleet, htpb_diff). A typo'd number must fail loudly -- exit
// status 2, naming the flag -- never be salvaged into a prefix by
// strtoull/strtod, wrapped by a narrowing cast, or read as nan/inf.
#pragma once

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace htpb::cli {

/// The operand of `flag` as a base-10 integer in [0, max]: digits only
/// (no sign, no blanks), consumed in full.
[[nodiscard]] inline std::uint64_t parse_uint(const char* text,
                                              const char* argv0,
                                              const char* flag,
                                              std::uint64_t max = UINT64_MAX) {
  char* end = nullptr;
  errno = 0;
  const bool digit = std::isdigit(static_cast<unsigned char>(text[0])) != 0;
  const unsigned long long v = digit ? std::strtoull(text, &end, 10) : 0;
  if (!digit || errno != 0 || *end != '\0' || v > max) {
    std::fprintf(stderr, "%s: %s expects an integer in [0, %llu], got"
                 " \"%s\"\n", argv0, flag,
                 static_cast<unsigned long long>(max), text);
    std::exit(2);
  }
  return v;
}

/// parse_uint for a count held in an int: [0, max], max <= INT_MAX.
[[nodiscard]] inline int parse_int(const char* text, const char* argv0,
                                   const char* flag, int max = INT_MAX) {
  return static_cast<int>(
      parse_uint(text, argv0, flag, static_cast<std::uint64_t>(max)));
}

/// The operand of `flag` as a finite decimal number >= 0, consumed in
/// full ("5%", "1x", "nan" and "inf" are all rejected).
[[nodiscard]] inline double parse_double(const char* text, const char* argv0,
                                         const char* flag) {
  char* end = nullptr;
  errno = 0;
  const bool lead = std::isdigit(static_cast<unsigned char>(text[0])) != 0 ||
                    text[0] == '.';
  const double v = lead ? std::strtod(text, &end) : 0.0;
  if (!lead || errno != 0 || *end != '\0' || !std::isfinite(v)) {
    std::fprintf(stderr, "%s: %s expects a finite number >= 0, got \"%s\"\n",
                 argv0, flag, text);
    std::exit(2);
  }
  return v;
}

}  // namespace htpb::cli
