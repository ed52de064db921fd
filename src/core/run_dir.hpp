// A resumable on-disk run directory for fleet campaigns.
//
// Layout under the root:
//
//   MANIFEST.json            -- {schema, tool, scenario, spec_fingerprint,
//                               cells: [{id, fingerprint}]}
//   spec.json                -- the resolved ScenarioSpec the campaign ran
//   cells/<id>.json          -- per-cell scenario spec handed to the worker
//   results/<id>.json        -- worker artifact (written by the worker)
//   status/<id>.json         -- scheduler verdict: done/failed, attempts, ...
//   logs/<id>.stdout|stderr  -- captured worker streams (last attempt)
//   quarantine/<id>.attemptK.json -- corrupt artifacts, moved aside
//   merged.json              -- the merged campaign tree
//
// Everything the scheduler writes goes through common::atomic_write_file,
// so a crash mid-write never leaves a half-written status or manifest: on
// re-invocation a cell either has a valid "done" status (skipped) or it
// does not (re-run). Worker artifacts are NOT trusted to be atomic --
// resume re-parses them before honoring a "done" status.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace htpb::core {

/// FNV-1a 64-bit of `text`, as 16 lowercase hex digits. Used to
/// fingerprint specs so a run directory refuses to resume a different
/// campaign and a stale cell result is never mistaken for a current one.
[[nodiscard]] std::string fingerprint(std::string_view text);

/// Scheduler verdict for one cell, persisted as status/<id>.json.
struct CellStatus {
  std::string state;        ///< "done" or "failed"
  std::string fingerprint;  ///< fingerprint of the cell's spec text
  int attempts = 0;
  std::string fail_reason;  ///< "" | "crash" | "timeout" | "error" | "corrupt-output"
  std::string last_error;   ///< stderr tail of the last failed attempt
};

class RunDir {
 public:
  explicit RunDir(std::string root);

  [[nodiscard]] const std::string& root() const { return root_; }

  /// Creates the root and the cells/results/status/logs/quarantine
  /// subdirectories (mkdir -p semantics; existing directories are fine).
  void ensure_layout() const;

  [[nodiscard]] std::string manifest_path() const;
  [[nodiscard]] bool has_manifest() const;
  [[nodiscard]] json::Value load_manifest() const;
  void write_manifest(const json::Value& manifest) const;

  [[nodiscard]] std::string spec_path() const;
  [[nodiscard]] std::string cell_spec_path(const std::string& id) const;
  [[nodiscard]] std::string result_path(const std::string& id) const;
  [[nodiscard]] std::string status_path(const std::string& id) const;
  [[nodiscard]] std::string stdout_path(const std::string& id) const;
  [[nodiscard]] std::string stderr_path(const std::string& id) const;
  [[nodiscard]] std::string quarantine_path(const std::string& id,
                                            int attempt) const;
  [[nodiscard]] std::string merged_path() const;

  /// nullopt if the status file is absent, unparseable, or missing keys:
  /// an interrupted status write simply re-runs the cell.
  [[nodiscard]] std::optional<CellStatus> load_status(const std::string& id) const;
  void write_status(const std::string& id, const CellStatus& status) const;

  /// Removes the cells/, results/ and status/ files of every id not in
  /// `ids` (a resumed run dir whose cell plan changed); returns how many
  /// files went.
  std::size_t remove_cells_except(const std::vector<std::string>& ids) const;

  /// Moves results/<id>.json to quarantine/<id>.attempt<k>.json so a
  /// corrupt artifact is preserved for inspection but can never be
  /// mistaken for a good result. Missing source is a no-op.
  void quarantine_result(const std::string& id, int attempt) const;

 private:
  std::string root_;
};

}  // namespace htpb::core
