#include "lint/graph.hpp"

#include <algorithm>
#include <functional>
#include <set>
#include <sstream>

namespace htpb::lint {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::string dirname_of(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? "" : path.substr(0, slash);
}

/// A project include edge, resolved to a scanned file.
struct Edge {
  std::string to;
  int line = 0;
  std::string target;  // the literal #include text, for messages
};

/// Resolves `target` against the scanned set the way the build's include
/// dirs do: relative to src/ and tools/ (the -I roots), to the repo root,
/// or to the including file's own directory. "" when nothing matches
/// (system or generated header) -- unresolved includes never lint.
std::string resolve_include(const std::string& from, const std::string& target,
                            const std::set<std::string>& scanned) {
  const std::string dir = dirname_of(from);
  const std::string candidates[] = {
      "src/" + target,
      "tools/" + target,
      target,
      dir.empty() ? target : dir + "/" + target,
  };
  for (const std::string& c : candidates) {
    if (scanned.count(c)) return c;
  }
  return "";
}

}  // namespace

LayerConfig parse_layers(const std::string& path, const std::string& body,
                         std::vector<std::string>& errors) {
  LayerConfig cfg;
  std::stringstream ss(body);
  std::string line;
  int lineno = 0;
  int layer = 0;
  while (std::getline(ss, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    std::stringstream words(line);
    std::string module;
    while (words >> module) {
      if (!cfg.layer_of.emplace(module, layer).second) {
        errors.push_back(path + ":" + std::to_string(lineno) +
                         ": module \"" + module +
                         "\" appears in two layers");
      }
    }
    ++layer;
  }
  cfg.loaded = true;
  return cfg;
}

std::string module_of(const std::string& path) {
  const auto second_component = [&](std::size_t start) -> std::string {
    const std::size_t slash = path.find('/', start);
    return slash == std::string::npos ? "" : path.substr(start, slash - start);
  };
  if (path.rfind("src/", 0) == 0) return second_component(4);
  if (path.rfind("tools/lint/", 0) == 0) return "lint";
  if (path.rfind("tools/", 0) == 0) return "tools";
  if (path.rfind("bench/", 0) == 0) return "bench";
  if (path.rfind("tests/", 0) == 0) return "tests";
  return "";
}

std::vector<LayerFinding> check_layering(const ProjectModel& pm,
                                         const LayerConfig& layers,
                                         std::vector<std::string>& errors) {
  std::vector<LayerFinding> out;
  std::set<std::string> scanned;
  for (const FileSummary& f : pm.files) scanned.insert(f.path);

  // Resolved edges, per file, in include order (deterministic: summaries
  // arrive path-sorted and includes line-ordered).
  std::map<std::string, std::vector<Edge>> edges;
  std::set<std::string> unknown_reported;
  for (const FileSummary& f : pm.files) {
    for (const Include& inc : f.includes) {
      const std::string to = resolve_include(f.path, inc.target, scanned);
      if (to.empty() || to == f.path) continue;
      edges[f.path].push_back({to, inc.line, inc.target});

      const std::string from_mod = module_of(f.path);
      const std::string to_mod = module_of(to);
      if (from_mod.empty() || to_mod.empty() || from_mod == to_mod) continue;
      const auto from_it = layers.layer_of.find(from_mod);
      const auto to_it = layers.layer_of.find(to_mod);
      for (const auto& [mod, it] :
           {std::pair{from_mod, from_it}, std::pair{to_mod, to_it}}) {
        if (it == layers.layer_of.end() && unknown_reported.insert(mod).second) {
          errors.push_back("layers: module \"" + mod +
                           "\" is not assigned to any layer in the layers "
                           "file; the DAG must cover every module");
        }
      }
      if (from_it == layers.layer_of.end() ||
          to_it == layers.layer_of.end()) {
        continue;
      }
      if (to_it->second >= from_it->second) {
        out.push_back(
            {f.path, inc.line, "layer-violation",
             "#include \"" + inc.target + "\" reaches module '" + to_mod +
                 "' (layer " + std::to_string(to_it->second) +
                 ") from module '" + from_mod + "' (layer " +
                 std::to_string(from_it->second) +
                 "); includes may only point at strictly lower layers"});
      }
    }
  }

  // Include cycles, DFS with an explicit chain. Each cycle is reported
  // once, at the edge that closes it, with the full #include chain.
  std::map<std::string, int> color;  // 0 white, 1 on stack, 2 done
  std::vector<std::string> chain;
  std::set<std::string> cycles_reported;
  const std::function<void(const std::string&)> dfs =
      [&](const std::string& file) {
        color[file] = 1;
        chain.push_back(file);
        const auto it = edges.find(file);
        if (it != edges.end()) {
          for (const Edge& e : it->second) {
            const int c = color[e.to];
            if (c == 0) {
              dfs(e.to);
            } else if (c == 1) {
              // Back edge: the cycle is the chain suffix from e.to.
              const auto at =
                  std::find(chain.begin(), chain.end(), e.to);
              std::string msg = "include cycle: ";
              std::string key;
              for (auto p = at; p != chain.end(); ++p) {
                msg += *p + " -> ";
                key += *p + "|";
              }
              msg += e.to;
              if (cycles_reported.insert(key).second) {
                out.push_back({file, e.line, "layer-cycle", msg});
              }
            }
          }
        }
        chain.pop_back();
        color[file] = 2;
      };
  for (const FileSummary& f : pm.files) {
    if (color[f.path] == 0) dfs(f.path);
  }

  return out;
}

}  // namespace htpb::lint
