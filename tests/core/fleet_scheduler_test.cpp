// FleetScheduler state machine, driven by /bin/sh workers that misbehave
// on cue (keyed off the HTPB_FLEET_ATTEMPT env the scheduler sets):
// retry-on-crash, quarantine-on-corrupt, timeout escalation, fail-fast on
// clean nonzero exits, resume semantics and the spec-fingerprint guard.
#include "core/fleet_scheduler.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/atomic_file.hpp"

namespace {

namespace fs = std::filesystem;

using htpb::core::FleetCell;
using htpb::core::FleetConfig;
using htpb::core::FleetReport;
using htpb::core::FleetScheduler;

class TempDir {
 public:
  TempDir() : path_(fs::current_path() / "fleet_scheduler_tmp") {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const fs::path& path() const noexcept { return path_; }

 private:
  fs::path path_;
};

/// A worker whose behaviour is the given shell script; $1 = cell spec
/// path, $2 = result path, $HTPB_FLEET_ATTEMPT = 1-based attempt.
FleetConfig config_with_script(const TempDir& dir, const std::string& script) {
  FleetConfig cfg;
  cfg.run_dir = (dir.path() / "run").string();
  cfg.shards = 2;
  cfg.max_attempts = 3;
  cfg.backoff_base_seconds = 0.01;
  cfg.backoff_max_seconds = 0.02;
  cfg.worker_command = [script](const std::string& spec_path,
                                const std::string& result_path) {
    return std::vector<std::string>{"/bin/sh", "-c", script,
                                    "sh",      spec_path, result_path};
  };
  return cfg;
}

std::vector<FleetCell> three_cells() {
  return {FleetCell{"c000-a", "{\"cell\": 0}\n"},
          FleetCell{"c001-b", "{\"cell\": 1}\n"},
          FleetCell{"c002-c", "{\"cell\": 2}\n"}};
}

TEST(FleetScheduler, AllCellsSucceedFirstAttempt) {
  const TempDir dir;
  FleetScheduler scheduler(config_with_script(dir, "cp \"$1\" \"$2\""));
  const FleetReport report = scheduler.run("test", "fp", three_cells());
  EXPECT_EQ(report.done, 3);
  EXPECT_EQ(report.failed, 0);
  EXPECT_EQ(report.resumed, 0);
  EXPECT_EQ(report.attempts, 3);
  for (const auto& outcome : report.cells) {
    EXPECT_TRUE(outcome.done) << outcome.id;
    EXPECT_EQ(outcome.attempts, 1) << outcome.id;
  }
  // Results hold the specs verbatim; statuses say done.
  EXPECT_EQ(htpb::common::read_file(scheduler.run_dir().result_path("c001-b")),
            "{\"cell\": 1}\n");
  const auto status = scheduler.run_dir().load_status("c001-b");
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, "done");
}

TEST(FleetScheduler, CrashingWorkerIsRetriedUntilItSucceeds) {
  const TempDir dir;
  FleetScheduler scheduler(config_with_script(
      dir,
      "if [ \"$HTPB_FLEET_ATTEMPT\" -lt 3 ]; then kill -ABRT $$; fi; "
      "cp \"$1\" \"$2\""));
  const FleetReport report =
      scheduler.run("test", "fp", {FleetCell{"c000-a", "{\"cell\": 0}\n"}});
  EXPECT_EQ(report.done, 1);
  EXPECT_EQ(report.failed, 0);
  EXPECT_EQ(report.cells[0].attempts, 3);
}

TEST(FleetScheduler, CrashEveryAttemptFailsWithCrashReason) {
  const TempDir dir;
  FleetScheduler scheduler(config_with_script(
      dir, "echo dying >&2; kill -ABRT $$"));
  const FleetReport report =
      scheduler.run("test", "fp", {FleetCell{"c000-a", "{\"cell\": 0}\n"}});
  EXPECT_EQ(report.failed, 1);
  EXPECT_EQ(report.cells[0].attempts, 3);
  EXPECT_EQ(report.cells[0].fail_reason, "crash");
  // The stderr tail of the last attempt rides along for the merge's
  // failures section.
  EXPECT_NE(report.cells[0].last_error.find("dying"), std::string::npos)
      << report.cells[0].last_error;
}

TEST(FleetScheduler, CorruptOutputIsQuarantinedThenRetried) {
  const TempDir dir;
  FleetScheduler scheduler(config_with_script(
      dir,
      "if [ \"$HTPB_FLEET_ATTEMPT\" -lt 2 ]; then "
      "printf '{\"bad\":' > \"$2\"; exit 0; fi; cp \"$1\" \"$2\""));
  const FleetReport report =
      scheduler.run("test", "fp", {FleetCell{"c000-a", "{\"cell\": 0}\n"}});
  EXPECT_EQ(report.done, 1);
  EXPECT_EQ(report.cells[0].attempts, 2);
  // The torn attempt-1 artifact is preserved in quarantine/.
  const std::string q = scheduler.run_dir().quarantine_path("c000-a", 1);
  ASSERT_TRUE(fs::exists(q));
  EXPECT_EQ(htpb::common::read_file(q), "{\"bad\":");
  // ... and the live result is the good attempt's.
  EXPECT_EQ(htpb::common::read_file(scheduler.run_dir().result_path("c000-a")),
            "{\"cell\": 0}\n");
}

TEST(FleetScheduler, HangingWorkerTimesOutAndRetries) {
  const TempDir dir;
  FleetConfig cfg = config_with_script(
      dir,
      "if [ \"$HTPB_FLEET_ATTEMPT\" -lt 2 ]; then exec sleep 30; fi; "
      "cp \"$1\" \"$2\"");
  cfg.timeout_seconds = 0.3;
  cfg.term_grace_seconds = 0.2;
  FleetScheduler scheduler(cfg);
  const FleetReport report =
      scheduler.run("test", "fp", {FleetCell{"c000-a", "{\"cell\": 0}\n"}});
  EXPECT_EQ(report.done, 1);
  EXPECT_EQ(report.cells[0].attempts, 2);
}

TEST(FleetScheduler, CleanNonzeroExitFailsFastWithoutRetry) {
  const TempDir dir;
  FleetScheduler scheduler(
      config_with_script(dir, "echo boom >&2; exit 4"));
  const FleetReport report =
      scheduler.run("test", "fp", {FleetCell{"c000-a", "{\"cell\": 0}\n"}});
  EXPECT_EQ(report.failed, 1);
  // A worker that REPORTS an error is deterministic; one attempt only.
  EXPECT_EQ(report.cells[0].attempts, 1);
  EXPECT_EQ(report.cells[0].fail_reason, "error");
  EXPECT_NE(report.cells[0].last_error.find("exit code 4"),
            std::string::npos);
  EXPECT_NE(report.cells[0].last_error.find("boom"), std::string::npos);
}

TEST(FleetScheduler, SecondRunResumesDoneCellsWithoutWorkers) {
  const TempDir dir;
  {
    FleetScheduler scheduler(config_with_script(dir, "cp \"$1\" \"$2\""));
    scheduler.run("test", "fp", three_cells());
  }
  // The resumed run's worker would fail loudly -- it must never launch.
  FleetScheduler scheduler(config_with_script(dir, "exit 9"));
  const FleetReport report = scheduler.run("test", "fp", three_cells());
  EXPECT_EQ(report.done, 3);
  EXPECT_EQ(report.resumed, 3);
  EXPECT_EQ(report.attempts, 0);
}

TEST(FleetScheduler, ChangedCellSpecRerunsThatCellOnly) {
  const TempDir dir;
  {
    FleetScheduler scheduler(config_with_script(dir, "cp \"$1\" \"$2\""));
    scheduler.run("test", "fp", three_cells());
  }
  auto cells = three_cells();
  cells[1].spec_text = "{\"cell\": 1, \"changed\": true}\n";
  FleetScheduler scheduler(config_with_script(dir, "cp \"$1\" \"$2\""));
  const FleetReport report = scheduler.run("test", "fp", cells);
  EXPECT_EQ(report.done, 3);
  EXPECT_EQ(report.resumed, 2);
  EXPECT_EQ(report.attempts, 1);
  EXPECT_FALSE(report.cells[1].resumed);
}

TEST(FleetScheduler, TornDoneArtifactIsRerunNotTrusted) {
  const TempDir dir;
  {
    FleetScheduler scheduler(config_with_script(dir, "cp \"$1\" \"$2\""));
    scheduler.run("test", "fp", three_cells());
  }
  // Corrupt one result behind the status's back (a kill mid-rewrite).
  htpb::common::atomic_write_file(
      (dir.path() / "run" / "results" / "c002-c.json").string(), "{\"to");
  FleetScheduler scheduler(config_with_script(dir, "cp \"$1\" \"$2\""));
  const FleetReport report = scheduler.run("test", "fp", three_cells());
  EXPECT_EQ(report.done, 3);
  EXPECT_EQ(report.resumed, 2);
  EXPECT_EQ(report.cells[2].attempts, 1);
  EXPECT_EQ(htpb::common::read_file(scheduler.run_dir().result_path("c002-c")),
            "{\"cell\": 2}\n");
}

TEST(FleetScheduler, DifferentSpecFingerprintIsRefused) {
  const TempDir dir;
  {
    FleetScheduler scheduler(config_with_script(dir, "cp \"$1\" \"$2\""));
    scheduler.run("test", "fp-one", three_cells());
  }
  FleetScheduler scheduler(config_with_script(dir, "cp \"$1\" \"$2\""));
  EXPECT_THROW(scheduler.run("test", "fp-two", three_cells()),
               std::runtime_error);
}

TEST(FleetScheduler, NoResumeRerunsEverythingEvenAcrossSpecs) {
  const TempDir dir;
  {
    FleetScheduler scheduler(config_with_script(dir, "cp \"$1\" \"$2\""));
    scheduler.run("test", "fp-one", three_cells());
  }
  FleetConfig cfg = config_with_script(dir, "cp \"$1\" \"$2\"");
  cfg.resume = false;
  FleetScheduler scheduler(cfg);
  const FleetReport report = scheduler.run("test", "fp-two", three_cells());
  EXPECT_EQ(report.done, 3);
  EXPECT_EQ(report.resumed, 0);
  EXPECT_EQ(report.attempts, 3);
}

}  // namespace
