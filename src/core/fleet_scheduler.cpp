#include "core/fleet_scheduler.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/atomic_file.hpp"
#include "common/rng.hpp"
#include "common/subprocess.hpp"

namespace htpb::core {

namespace {

constexpr int kManifestSchema = 1;
constexpr std::size_t kStderrTailBytes = 2000;

[[nodiscard]] std::string stderr_tail(const std::string& path) {
  std::string text;
  try {
    text = common::read_file(path);
  } catch (const std::exception&) {
    return "";
  }
  if (text.size() > kStderrTailBytes) {
    text.erase(0, text.size() - kStderrTailBytes);
  }
  while (!text.empty() && text.back() == '\n') text.pop_back();
  return text;
}

/// Bounded exponential backoff with deterministic jitter: the wait before
/// retry k of `cell_id` is a pure function of (seed, cell, k), so a
/// faulted campaign replays with identical timing structure.
[[nodiscard]] double backoff_seconds(const FleetConfig& config,
                                     const std::string& cell_id, int attempt) {
  double base = config.backoff_base_seconds;
  for (int i = 1; i < attempt && base < config.backoff_max_seconds; ++i) {
    base *= 2.0;
  }
  base = std::min(base, config.backoff_max_seconds);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : cell_id) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  Rng rng(splitmix64(config.backoff_seed ^ h) +
          static_cast<std::uint64_t>(attempt));
  return base * (0.5 + rng.uniform());
}

[[nodiscard]] json::Value make_manifest(const std::string& scenario_name,
                                        const std::string& spec_fingerprint,
                                        const std::vector<FleetCell>& cells) {
  json::Array cell_array;
  cell_array.reserve(cells.size());
  for (const FleetCell& cell : cells) {
    json::Object o;
    o["id"] = json::Value(cell.id);
    o["fingerprint"] = json::Value(fingerprint(cell.spec_text));
    cell_array.push_back(json::Value(std::move(o)));
  }
  json::Object manifest;
  manifest["schema"] = json::Value(kManifestSchema);
  manifest["tool"] = json::Value("htpb_fleet");
  manifest["scenario"] = json::Value(scenario_name);
  manifest["spec_fingerprint"] = json::Value(spec_fingerprint);
  manifest["cells"] = json::Value(std::move(cell_array));
  return json::Value(std::move(manifest));
}

}  // namespace

FleetScheduler::FleetScheduler(FleetConfig config)
    : config_(std::move(config)), run_dir_(config_.run_dir) {
  if (config_.shards < 1) {
    throw std::runtime_error("FleetScheduler: shards must be >= 1");
  }
  if (config_.max_attempts < 1) {
    throw std::runtime_error("FleetScheduler: max_attempts must be >= 1");
  }
  if (!config_.worker_command) {
    throw std::runtime_error("FleetScheduler: worker_command is required");
  }
}

FleetReport FleetScheduler::run(const std::string& scenario_name,
                                const std::string& spec_fingerprint,
                                const std::vector<FleetCell>& cells) {
  run_dir_.ensure_layout();

  if (config_.resume && run_dir_.has_manifest()) {
    const json::Value manifest = run_dir_.load_manifest();
    const json::Value* fp = manifest.as_object().find("spec_fingerprint");
    if (fp == nullptr || fp->as_string() != spec_fingerprint) {
      throw std::runtime_error(
          "FleetScheduler: run dir " + run_dir_.root() +
          " holds a different spec (fingerprint " +
          (fp != nullptr ? fp->as_string() : "<missing>") + " vs " +
          spec_fingerprint + "); use a fresh directory");
    }
  }
  run_dir_.write_manifest(make_manifest(scenario_name, spec_fingerprint, cells));

  std::mutex log_mutex;
  const auto log = [&](const std::string& line) {
    if (!config_.log) return;
    const std::lock_guard<std::mutex> lock(log_mutex);
    config_.log(line);
  };

  if (config_.resume) {
    // The same spec may be split into another cell plan (a new build's
    // split axis): the old plan's files would never be read again.
    std::vector<std::string> ids;
    ids.reserve(cells.size());
    for (const FleetCell& cell : cells) ids.push_back(cell.id);
    const std::size_t removed = run_dir_.remove_cells_except(ids);
    if (removed > 0) {
      log("removed " + std::to_string(removed) +
          " files of cells outside the plan");
    }
  }

  FleetReport report;
  report.cells.resize(cells.size());

  std::atomic<std::size_t> next_cell{0};
  const auto worker_loop = [&]() {
    for (;;) {
      const std::size_t i = next_cell.fetch_add(1);
      if (i >= cells.size()) return;
      const FleetCell& cell = cells[i];
      FleetCellOutcome& outcome = report.cells[i];
      outcome.id = cell.id;

      const std::string cell_fp = fingerprint(cell.spec_text);
      const std::string result_path = run_dir_.result_path(cell.id);

      if (config_.resume) {
        const auto prior = run_dir_.load_status(cell.id);
        if (prior && prior->state == "done" && prior->fingerprint == cell_fp) {
          // Honor "done" only if the artifact still parses: workers do
          // not write atomically, so a kill mid-run can leave a done
          // status from a PREVIOUS attempt next to a torn file.
          bool artifact_ok = false;
          try {
            (void)json::parse_file(result_path);
            artifact_ok = true;
          } catch (const std::exception&) {
          }
          if (artifact_ok) {
            outcome.done = true;
            outcome.resumed = true;
            log("cell " + cell.id + ": resumed (already done)");
            continue;
          }
        }
      }

      common::atomic_write_file(run_dir_.cell_spec_path(cell.id),
                                cell.spec_text);

      CellStatus status;
      status.fingerprint = cell_fp;
      for (int attempt = 1; attempt <= config_.max_attempts; ++attempt) {
        outcome.attempts = attempt;
        status.attempts = attempt;
        // A stale artifact from an earlier attempt must never be
        // mistaken for this attempt's output.
        ::unlink(result_path.c_str());

        common::SubprocessOptions opts;
        opts.env = {{"HTPB_FLEET_CELL", cell.id},
                    {"HTPB_FLEET_ATTEMPT", std::to_string(attempt)}};
        opts.stdout_path = run_dir_.stdout_path(cell.id);
        opts.stderr_path = run_dir_.stderr_path(cell.id);
        opts.timeout_seconds = config_.timeout_seconds;
        opts.term_grace_seconds = config_.term_grace_seconds;

        const std::vector<std::string> argv =
            config_.worker_command(run_dir_.cell_spec_path(cell.id),
                                   result_path);
        const common::SubprocessResult r = common::run_subprocess(argv, opts);

        bool retryable = false;
        if (r.timed_out) {
          outcome.fail_reason = "timeout";
          outcome.last_error = "killed after " +
                               std::to_string(config_.timeout_seconds) +
                               "s wall clock";
          retryable = true;
        } else if (r.signaled) {
          outcome.fail_reason = "crash";
          outcome.last_error = "terminated by signal " +
                               std::to_string(r.term_signal) + "; stderr: " +
                               stderr_tail(run_dir_.stderr_path(cell.id));
          retryable = true;
        } else if (r.exit_code != 0) {
          // A clean nonzero exit is the worker deterministically
          // reporting a bad input; retrying replays the same failure.
          outcome.fail_reason = "error";
          outcome.last_error = "exit code " + std::to_string(r.exit_code) +
                               "; stderr: " +
                               stderr_tail(run_dir_.stderr_path(cell.id));
          retryable = false;
        } else {
          try {
            (void)json::parse_file(result_path);
            outcome.done = true;
            outcome.fail_reason.clear();
            outcome.last_error.clear();
          } catch (const std::exception& e) {
            outcome.fail_reason = "corrupt-output";
            outcome.last_error = e.what();
            run_dir_.quarantine_result(cell.id, attempt);
            retryable = true;
          }
        }

        if (outcome.done) {
          status.state = "done";
          status.fail_reason.clear();
          status.last_error.clear();
          run_dir_.write_status(cell.id, status);
          log("cell " + cell.id + ": done (attempt " +
              std::to_string(attempt) + ")");
          break;
        }

        log("cell " + cell.id + ": " + outcome.fail_reason + " (attempt " +
            std::to_string(attempt) + "/" +
            std::to_string(config_.max_attempts) + ")");
        if (!retryable || attempt == config_.max_attempts) {
          status.state = "failed";
          status.fail_reason = outcome.fail_reason;
          status.last_error = outcome.last_error;
          run_dir_.write_status(cell.id, status);
          break;
        }
        const double wait = backoff_seconds(config_, cell.id, attempt);
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
    }
  };

  const int shard_count =
      static_cast<int>(std::min<std::size_t>(config_.shards, cells.size()));
  std::vector<std::thread> shards;
  shards.reserve(shard_count);
  for (int i = 0; i < shard_count; ++i) shards.emplace_back(worker_loop);
  for (std::thread& t : shards) t.join();

  for (const FleetCellOutcome& outcome : report.cells) {
    if (outcome.resumed) {
      ++report.resumed;
      ++report.done;
    } else if (outcome.done) {
      ++report.done;
    } else {
      ++report.failed;
    }
    report.attempts += outcome.attempts;
  }
  return report;
}

}  // namespace htpb::core
