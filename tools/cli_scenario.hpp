// The scenario front end shared by htpb_run and htpb_fleet: what
// `--scenario ARG [--quick] [--set key=value ...]` means.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"

namespace htpb::cli {

/// The spec `arg` names: a ScenarioSpec JSON file when it contains '/' or
/// ends in .json, else a registry name. Each `sets` entry (key=value) is
/// applied by dotted path after the quick overlay, so an explicit CLI
/// override wins over whatever the overlay touches. A malformed entry
/// exits 2; a bad key or value throws.
[[nodiscard]] inline scenario::ScenarioSpec load_cli_spec(
    const std::string& arg, bool quick, const std::vector<std::string>& sets,
    const char* argv0) {
  const bool is_path =
      arg.find('/') != std::string::npos ||
      (arg.size() > 5 && arg.compare(arg.size() - 5, 5, ".json") == 0);
  scenario::ScenarioSpec spec = is_path ? scenario::load_spec_file(arg)
                                        : scenario::scenario_or_throw(arg);
  if (sets.empty()) return spec;
  if (quick) spec = spec.with_quick();
  json::Value spec_json = spec.to_json();
  for (const std::string& kv : sets) {
    const std::size_t eq = kv.find('=');
    if (eq == std::string::npos || eq == 0) {
      std::fprintf(stderr, "%s: --set expects key=value, got \"%s\"\n", argv0,
                   kv.c_str());
      std::exit(2);
    }
    scenario::apply_override(spec_json, kv.substr(0, eq), kv.substr(eq + 1));
  }
  spec = scenario::ScenarioSpec::from_json(spec_json);
  spec.validate();
  return spec;
}

}  // namespace htpb::cli
