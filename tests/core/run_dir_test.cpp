// RunDir contract: layout creation, status round-trips, the
// torn-status-means-rerun rule, quarantine moves, removal of cells
// outside a plan, and the spec fingerprint helper.
#include "core/run_dir.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/atomic_file.hpp"

namespace {

namespace fs = std::filesystem;

using htpb::core::CellStatus;
using htpb::core::fingerprint;
using htpb::core::RunDir;

class TempDir {
 public:
  TempDir() : path_(fs::current_path() / "run_dir_tmp") {
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

TEST(Fingerprint, StableAndContentSensitive) {
  EXPECT_EQ(fingerprint("abc"), fingerprint("abc"));
  EXPECT_NE(fingerprint("abc"), fingerprint("abd"));
  EXPECT_EQ(fingerprint("").size(), 16U);
  // FNV-1a 64 of the empty string -- locks the algorithm, not just the
  // shape, so persisted manifests stay readable across builds.
  EXPECT_EQ(fingerprint(""), "cbf29ce484222325");
}

TEST(RunDir, EnsureLayoutCreatesNestedRootAndSubdirs) {
  const TempDir dir;
  RunDir rd((dir.path() / "a" / "b" / "run").string());
  rd.ensure_layout();
  for (const char* sub :
       {"cells", "results", "status", "logs", "quarantine"}) {
    EXPECT_TRUE(fs::is_directory(dir.path() / "a" / "b" / "run" / sub))
        << sub;
  }
  // Idempotent: a resume re-ensures the same layout.
  rd.ensure_layout();
}

TEST(RunDir, StatusRoundTripsThroughDisk) {
  const TempDir dir;
  RunDir rd((dir.path() / "run").string());
  rd.ensure_layout();

  EXPECT_FALSE(rd.load_status("c000-x").has_value());

  CellStatus status;
  status.state = "failed";
  status.fingerprint = fingerprint("spec");
  status.attempts = 3;
  status.fail_reason = "timeout";
  status.last_error = "killed after 5s";
  rd.write_status("c000-x", status);

  const auto loaded = rd.load_status("c000-x");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->state, "failed");
  EXPECT_EQ(loaded->fingerprint, fingerprint("spec"));
  EXPECT_EQ(loaded->attempts, 3);
  EXPECT_EQ(loaded->fail_reason, "timeout");
  EXPECT_EQ(loaded->last_error, "killed after 5s");
}

TEST(RunDir, TornOrForeignStatusReadsAsAbsent) {
  const TempDir dir;
  RunDir rd((dir.path() / "run").string());
  rd.ensure_layout();

  // Truncated JSON: a crash mid-write (workers don't write atomically).
  htpb::common::atomic_write_file(rd.status_path("torn"), "{\"state\": \"do");
  EXPECT_FALSE(rd.load_status("torn").has_value());

  // Valid JSON, wrong shape.
  htpb::common::atomic_write_file(rd.status_path("foreign"), "{\"a\": 1}\n");
  EXPECT_FALSE(rd.load_status("foreign").has_value());

  // Unknown state value.
  htpb::common::atomic_write_file(
      rd.status_path("odd"),
      "{\"state\": \"maybe\", \"fingerprint\": \"x\", \"attempts\": 1}\n");
  EXPECT_FALSE(rd.load_status("odd").has_value());
}

TEST(RunDir, QuarantineMovesTheArtifactAside) {
  const TempDir dir;
  RunDir rd((dir.path() / "run").string());
  rd.ensure_layout();

  htpb::common::atomic_write_file(rd.result_path("c001-y"), "garbage");
  rd.quarantine_result("c001-y", 2);
  EXPECT_FALSE(fs::exists(rd.result_path("c001-y")));
  const std::string q = rd.quarantine_path("c001-y", 2);
  ASSERT_TRUE(fs::exists(q));
  EXPECT_EQ(htpb::common::read_file(q), "garbage");

  // Missing source: no-op, not an error (the garbage fault may have
  // written nothing at all).
  rd.quarantine_result("c001-y", 3);
}

TEST(RunDir, RemoveCellsExceptKeepsOnlyThePlannedIds) {
  const TempDir dir;
  RunDir rd((dir.path() / "run").string());
  rd.ensure_layout();
  for (const char* id : {"c000-a", "c001-b", "c000-a-old"}) {
    htpb::common::atomic_write_file(rd.cell_spec_path(id), "{}");
    htpb::common::atomic_write_file(rd.result_path(id), "{}");
    htpb::common::atomic_write_file(rd.status_path(id), "{}");
    htpb::common::atomic_write_file(rd.stdout_path(id), "log");
  }
  EXPECT_EQ(rd.remove_cells_except({"c000-a", "c001-b"}), 3U);
  for (const char* id : {"c000-a", "c001-b"}) {
    EXPECT_TRUE(fs::exists(rd.cell_spec_path(id))) << id;
    EXPECT_TRUE(fs::exists(rd.result_path(id))) << id;
    EXPECT_TRUE(fs::exists(rd.status_path(id))) << id;
  }
  EXPECT_FALSE(fs::exists(rd.cell_spec_path("c000-a-old")));
  EXPECT_FALSE(fs::exists(rd.result_path("c000-a-old")));
  EXPECT_FALSE(fs::exists(rd.status_path("c000-a-old")));
  // Logs are not plan state; they stay.
  EXPECT_TRUE(fs::exists(rd.stdout_path("c000-a-old")));
  EXPECT_EQ(rd.remove_cells_except({"c000-a", "c001-b"}), 0U);
}

TEST(RunDir, ManifestRoundTrips) {
  const TempDir dir;
  RunDir rd((dir.path() / "run").string());
  rd.ensure_layout();
  EXPECT_FALSE(rd.has_manifest());

  htpb::json::Object m;
  m["schema"] = htpb::json::Value(1);
  m["spec_fingerprint"] = htpb::json::Value(fingerprint("spec"));
  rd.write_manifest(htpb::json::Value(std::move(m)));

  ASSERT_TRUE(rd.has_manifest());
  const htpb::json::Value loaded = rd.load_manifest();
  EXPECT_EQ(loaded.as_object().find("spec_fingerprint")->as_string(),
            fingerprint("spec"));
}

}  // namespace
