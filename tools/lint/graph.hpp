// Layering over the include graph.
//
// tools/lint_layers.txt declares the module DAG as layers, bottom-up:
// one line per layer, modules separated by spaces. A module may include
// itself and any module on a strictly lower layer; a same-layer
// cross-module include or an upward include is a `layer-violation`, and
// any cycle among project includes (which the layer rule alone cannot
// see when it runs through an unmapped file) is a `layer-cycle`,
// reported with the offending #include chain.
//
// Modules are directory-derived: src/<m>/... -> m, tools/lint/... ->
// lint, tools/... -> tools, bench/ tests/ -> themselves.
// Files outside those roots (lint fixtures run with --root pointing at
// the fixture dir) have no module and never participate in layering --
// they still participate in cycle detection when their includes resolve.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "lint/project_model.hpp"

namespace htpb::lint {

struct LayerConfig {
  /// layer index by module name; lower = closer to the bottom.
  std::map<std::string, int> layer_of;
  bool loaded = false;
};

/// Parses a layers file body. Malformed lines (duplicate module) land in
/// `errors`; '#' starts a comment.
LayerConfig parse_layers(const std::string& path, const std::string& body,
                         std::vector<std::string>& errors);

/// Module of a repo-relative path, "" when unmapped.
std::string module_of(const std::string& path);

/// A layering finding, same shape the engine turns into a Violation.
struct LayerFinding {
  std::string file;
  int line = 0;
  std::string rule;  // "layer-violation" or "layer-cycle"
  std::string message;
};

/// Checks every resolved project include against the layer DAG and the
/// include graph for cycles. A module present in the tree but missing
/// from the layers file is a configuration error: the DAG must stay an
/// exhaustive statement of the architecture.
std::vector<LayerFinding> check_layering(const ProjectModel& pm,
                                         const LayerConfig& layers,
                                         std::vector<std::string>& errors);

}  // namespace htpb::lint
