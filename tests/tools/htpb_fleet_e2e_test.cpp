// End-to-end fleet contract, shelling the REAL binaries (paths baked in
// at build time): a deterministically faulted campaign -- crash, hang,
// garbage artifact -- must retry, quarantine and still merge a tree
// bit-identical (minus timing/fleet) to a fault-free single-process
// `htpb_run` of the same spec; a killed run must resume from its run
// directory without re-simulating completed cells; a run dir must refuse
// a different spec.
//
// The fault schedule is a pure function of (seed, cell, attempt). With
// crash:0.3,hang:0.1,garbage:0.3,seed:2 over budgeter-ablation --quick's
// five cells: c000/c003/c004 pass clean, c002 crashes once, and c001
// walks the whole gauntlet (garbage, crash, hang, then success) --
// 9 worker launches, every fault kind exercised, zero failures.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/subprocess.hpp"

#ifndef HTPB_RUN_BINARY
#error "HTPB_RUN_BINARY must be defined"
#endif
#ifndef HTPB_FLEET_BINARY
#error "HTPB_FLEET_BINARY must be defined"
#endif
#ifndef HTPB_DIFF_BINARY
#error "HTPB_DIFF_BINARY must be defined"
#endif
#ifndef HTPB_TIMEOUT_SCALE
#error "HTPB_TIMEOUT_SCALE must be defined"
#endif

namespace {

namespace fs = std::filesystem;

constexpr const char* kFaultEnv =
    "HTPB_FLEET_FAULT='crash:0.3,hang:0.1,garbage:0.3,seed:2' ";
constexpr const char* kScenarioArgs =
    "--scenario budgeter-ablation --quick --threads 2 ";

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class TempDir {
 public:
  explicit TempDir(const char* name)
      : path_(fs::current_path() / (std::string("htpb_fleet_e2e_") + name)) {
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

struct RunResult {
  int exit_code = -1;  ///< -1 when the run was killed or crashed
  std::string out;
  std::string err;
};

/// Every run has a wall-clock limit, so a hung row fails naming its
/// command line instead of hanging the suite. Both limits sit inside the
/// ctest TIMEOUT and scale with it (tests/CMakeLists.txt). A row that
/// exits before any simulation (usage errors, diffs, --list-cells) takes
/// milliseconds.
constexpr double kRowLimitSeconds = 5.0 * HTPB_TIMEOUT_SCALE;
/// A row that runs a campaign: ~0.2 s for a quick fleet in a Release
/// build; the faulted fleet adds its one 5 s worker timeout.
constexpr double kFleetLimitSeconds = 30.0 * HTPB_TIMEOUT_SCALE;

/// `prefix` rides in front of the command line: env assignments.
RunResult run_cmd(const TempDir& dir, const std::string& prefix,
                  const std::string& binary, const std::string& args,
                  double limit_seconds = kRowLimitSeconds) {
  const fs::path out = dir.path() / "stdout.txt";
  const fs::path err = dir.path() / "stderr.txt";
  htpb::common::SubprocessOptions opts;
  opts.stdout_path = out.string();
  opts.stderr_path = err.string();
  opts.timeout_seconds = limit_seconds;
  opts.term_grace_seconds = 1.0;
  // The shell only sets `prefix` and unquotes `args`; exec hands its
  // process to the binary, so the limit's SIGTERM/SIGKILL reach it.
  const std::string cmd = prefix + "exec \"" + binary + "\" " + args;
  const htpb::common::SubprocessResult sub =
      htpb::common::run_subprocess({"/bin/sh", "-c", cmd}, opts);
  if (sub.timed_out) {
    ADD_FAILURE() << "timed out after " << limit_seconds << " s: " << cmd;
  }
  RunResult r;
  if (!sub.timed_out && !sub.signaled) r.exit_code = sub.exit_code;
  r.out = slurp(out);
  r.err = slurp(err);
  return r;
}

/// htpb_fleet's arguments for the shared scenario plus `extra_args`.
std::string fleet_args(const std::string& extra_args) {
  // --htpb-run pins the worker explicitly; the test must not depend on
  // binary discovery relative to the fleet executable.
  return std::string(kScenarioArgs) + "--htpb-run \"" + HTPB_RUN_BINARY +
         "\" " + extra_args;
}

RunResult run_fleet(const TempDir& dir, const std::string& prefix,
                    const std::string& extra_args) {
  return run_cmd(dir, prefix, HTPB_FLEET_BINARY, fleet_args(extra_args),
                 kFleetLimitSeconds);
}

/// Single-process reference tree, shared across tests (immutable).
const std::string& single_run_json() {
  static const std::string path = [] {
    static TempDir dir("ref");  // lives for the whole test binary
    const std::string p = (dir.path() / "single.json").string();
    const RunResult r = run_cmd(
        dir, "", HTPB_RUN_BINARY,
        std::string(kScenarioArgs) + "--json \"" + p + "\"",
        kFleetLimitSeconds);
    if (r.exit_code != 0) {
      ADD_FAILURE() << "reference htpb_run failed: " << r.err;
    }
    return p;
  }();
  return path;
}

int diff_exit(const TempDir& dir, const std::string& a,
              const std::string& b) {
  return run_cmd(dir, "", HTPB_DIFF_BINARY, "\"" + a + "\" \"" + b + "\"")
      .exit_code;
}

const htpb::json::Value* fleet_section(const htpb::json::Value& merged) {
  return merged.as_object().find("fleet");
}

TEST(HtpbFleetE2e, FaultFreeFleetMatchesSingleRunBitForBit) {
  const TempDir dir("clean");
  const std::string rd = (dir.path() / "rd").string();
  const RunResult r = run_fleet(dir, "", "--run-dir \"" + rd + "\"");
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_EQ(diff_exit(dir, single_run_json(), rd + "/merged.json"), 0);

  const htpb::json::Value merged =
      htpb::json::parse(slurp(rd + "/merged.json"));
  ASSERT_NE(fleet_section(merged), nullptr);
  const htpb::json::Object& fleet = fleet_section(merged)->as_object();
  EXPECT_EQ(fleet.find("cells")->as_int(), 5);
  EXPECT_EQ(fleet.find("done")->as_int(), 5);
  EXPECT_EQ(fleet.find("failed")->as_int(), 0);
  EXPECT_EQ(fleet.find("attempts")->as_int(), 5);
}

TEST(HtpbFleetE2e, FaultedFleetRetriesQuarantinesAndStillMatches) {
  const TempDir dir("faulted");
  const std::string rd = (dir.path() / "rd").string();
  // A quick ablation cell runs in well under a second; the one injected
  // hang costs timeout + grace of wall clock, so keep both short.
  const RunResult r = run_fleet(
      dir, kFaultEnv,
      "--run-dir \"" + rd +
          "\" --max-attempts 4 --timeout 5 --term-grace 0.5 --backoff 0.01");
  ASSERT_EQ(r.exit_code, 0) << r.err;

  // The injected schedule: 9 launches, all five cells recover.
  const htpb::json::Value merged =
      htpb::json::parse(slurp(rd + "/merged.json"));
  ASSERT_NE(fleet_section(merged), nullptr);
  const htpb::json::Object& fleet = fleet_section(merged)->as_object();
  EXPECT_EQ(fleet.find("done")->as_int(), 5);
  EXPECT_EQ(fleet.find("failed")->as_int(), 0);
  EXPECT_EQ(fleet.find("attempts")->as_int(), 9);
  EXPECT_EQ(fleet.find("failures")->as_array().size(), 0U);

  // c001's attempt-1 garbage artifact is preserved in quarantine.
  EXPECT_TRUE(
      fs::exists(fs::path(rd) / "quarantine" / "c001-greedy.attempt1.json"));
  // The hang and crash attempts left their marks in the logs.
  EXPECT_NE(r.err.find("timeout"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("crash"), std::string::npos) << r.err;

  // The headline: a campaign that crashed, hung and corrupted its way
  // through still merges bit-identical to the clean single process.
  EXPECT_EQ(diff_exit(dir, single_run_json(), rd + "/merged.json"), 0);
}

TEST(HtpbFleetE2e, ResumeSkipsDoneCellsWithoutResimulating) {
  const TempDir dir("resume");
  const std::string rd = (dir.path() / "rd").string();
  ASSERT_EQ(run_fleet(dir, "", "--run-dir \"" + rd + "\"").exit_code, 0);

  // Forge a half-finished campaign: cells 1..4 lose their statuses (as
  // if the scheduler died before writing them) and c000 keeps its done
  // status but gets a sentinel result. If resume re-simulated c000 the
  // sentinel would be overwritten; if it trusts the status, it survives
  // into the merged tree.
  for (const char* id :
       {"c001-greedy", "c002-proportional", "c003-dp", "c004-market"}) {
    fs::remove(fs::path(rd) / "status" / (std::string(id) + ".json"));
    fs::remove(fs::path(rd) / "results" / (std::string(id) + ".json"));
  }
  {
    const fs::path c000 = fs::path(rd) / "results" / "c000-uniform.json";
    htpb::json::Value result = htpb::json::parse(slurp(c000));
    result.as_object()["rows"].as_array()[0].as_object()["q"] =
        htpb::json::Value(123456.5);
    std::ofstream(c000) << htpb::json::dump(result, 2) << "\n";
  }

  const RunResult r = run_fleet(dir, "", "--run-dir \"" + rd + "\"");
  ASSERT_EQ(r.exit_code, 0) << r.err;
  const htpb::json::Value merged =
      htpb::json::parse(slurp(rd + "/merged.json"));
  ASSERT_NE(fleet_section(merged), nullptr);
  const htpb::json::Object& fleet = fleet_section(merged)->as_object();
  EXPECT_EQ(fleet.find("resumed")->as_int(), 1);
  EXPECT_EQ(fleet.find("attempts")->as_int(), 4);
  EXPECT_EQ(merged.as_object()
                .find("rows")
                ->as_array()[0]
                .as_object()
                .find("q")
                ->as_double(),
            123456.5);
}

TEST(HtpbFleetE2e, KilledMidRunCompletesOnReinvocation) {
  const TempDir dir("killed");
  const std::string rd = (dir.path() / "rd").string();
  // SIGKILL the whole fleet mid-campaign: no destructors, no cleanup --
  // whatever statuses were durably written are all the resume gets.
  (void)run_cmd(dir, "", "timeout",
                "-s KILL 0.1 \"" + std::string(HTPB_FLEET_BINARY) + "\" " +
                    fleet_args("--run-dir \"" + rd + "\""),
                kFleetLimitSeconds);

  const RunResult r = run_fleet(dir, "", "--run-dir \"" + rd + "\"");
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_EQ(diff_exit(dir, single_run_json(), rd + "/merged.json"), 0);
}

TEST(HtpbFleetE2e, RunDirHoldingADifferentSpecIsRefused) {
  const TempDir dir("refused");
  const std::string rd = (dir.path() / "rd").string();
  ASSERT_EQ(run_fleet(dir, "", "--run-dir \"" + rd + "\"").exit_code, 0);

  constexpr const char* kFewerHts =
      R"( --set 'axes.placements=[{"at": "gm", "hts": 4}]')";
  const RunResult r =
      run_fleet(dir, "", "--run-dir \"" + rd + "\"" + kFewerHts);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("different spec"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("fresh directory"), std::string::npos) << r.err;
}

// The pool size is an execution option: each worker gets it on its
// command line, and a finished run dir resumes under another one.
TEST(HtpbFleetE2e, ResumeIgnoresTheThreadCount) {
  const TempDir dir("threads");
  const std::string rd = (dir.path() / "rd").string();
  ASSERT_EQ(run_fleet(dir, "", "--run-dir \"" + rd + "\"").exit_code, 0);
  const htpb::json::Value cell = htpb::json::parse(
      slurp(fs::path(rd) / "results" / "c000-uniform.json"));
  EXPECT_EQ(cell.as_object().find("threads")->as_int(), 2);

  // This --threads overrides kScenarioArgs' 2.
  const RunResult r =
      run_fleet(dir, "", "--run-dir \"" + rd + "\" --threads 1");
  ASSERT_EQ(r.exit_code, 0) << r.err;
  const htpb::json::Value merged =
      htpb::json::parse(slurp(rd + "/merged.json"));
  ASSERT_NE(fleet_section(merged), nullptr);
  const htpb::json::Object& fleet = fleet_section(merged)->as_object();
  EXPECT_EQ(fleet.find("resumed")->as_int(), 5);
  EXPECT_EQ(fleet.find("attempts")->as_int(), 0);
  EXPECT_EQ(diff_exit(dir, single_run_json(), rd + "/merged.json"), 0);
}

// A run dir written under an older cell plan of the same spec -- fig3
// --quick once split per HT count into 14 cells, now per arm into 2 --
// keeps only the current plan's files once resumed.
TEST(HtpbFleetE2e, ResumeRemovesCellsOutsideThePlan) {
  const TempDir dir("replan");
  const fs::path rd = dir.path() / "rd";
  const std::string fig3 = std::string("--scenario fig3 --quick --threads 2 ") +
                           "--htpb-run \"" + HTPB_RUN_BINARY +
                           "\" --run-dir \"" + rd.string() + "\"";
  ASSERT_EQ(
      run_cmd(dir, "", HTPB_FLEET_BINARY, fig3, kFleetLimitSeconds).exit_code,
      0);

  const std::string live_status = slurp(rd / "status" / "c000-n64.json");
  const std::string live_result = slurp(rd / "results" / "c000-n64.json");
  int index = 0;
  for (const auto& [nodes, hts] :
       {std::pair{64, std::vector{2, 5, 10, 15, 20, 25, 30}},
        std::pair{512, std::vector{5, 10, 20, 30, 40, 50, 60}}}) {
    for (const int h : hts) {
      char id[32];
      std::snprintf(id, sizeof(id), "c%03d-n%d-ht%d", index++, nodes, h);
      const std::string file = std::string(id) + ".json";
      std::ofstream(rd / "cells" / file) << "{}\n";
      std::ofstream(rd / "results" / file) << live_result;
      std::ofstream(rd / "status" / file) << live_status;
    }
  }

  const RunResult r =
      run_cmd(dir, "", HTPB_FLEET_BINARY, fig3, kFleetLimitSeconds);
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.err.find("removed 42 files"), std::string::npos) << r.err;
  const htpb::json::Value merged =
      htpb::json::parse(slurp(rd / "merged.json"));
  const htpb::json::Object& fleet = fleet_section(merged)->as_object();
  EXPECT_EQ(fleet.find("resumed")->as_int(), 2);
  EXPECT_EQ(fleet.find("attempts")->as_int(), 0);
  for (const char* sub : {"cells", "results", "status"}) {
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(rd / sub)) {
      names.push_back(entry.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names,
              (std::vector<std::string>{"c000-n64.json", "c001-n512.json"}))
        << sub;
  }
}

TEST(HtpbFleetE2e, ListCellsPrintsThePlan) {
  const TempDir dir("list");
  const RunResult r = run_fleet(dir, "", "--list-cells");
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("c000-uniform\n"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("c004-market\n"), std::string::npos) << r.out;
  EXPECT_NE(r.err.find("5 cells"), std::string::npos) << r.err;
}

TEST(HtpbFleetE2e, MalformedFaultSpecFailsLoudly) {
  const TempDir dir("badfault");
  const RunResult r =
      run_cmd(dir, "HTPB_FLEET_FAULT='garbage' ", HTPB_RUN_BINARY,
              "--scenario budgeter-ablation --quick");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("HTPB_FLEET_FAULT"), std::string::npos) << r.err;
}

TEST(HtpbFleetE2e, MalformedNumericFlagsFailBeforeAnyWork) {
  const TempDir dir("badnum");
  const std::string rd = (dir.path() / "rd").string();
  // Counts past int must not wrap (2^32 + 2 shards -> 2), and seconds
  // must be finite: a nan grace or an inf timeout would disable the
  // TERM -> KILL deadline.
  for (const char* flag : {"--shards 4294967298", "--term-grace nan",
                           "--timeout inf", "--backoff nan",
                           "--max-attempts 4294967297"}) {
    const RunResult r =
        run_fleet(dir, "", "--run-dir \"" + rd + "\" " + flag);
    const std::string name(flag, std::string(flag).find(' '));
    EXPECT_EQ(r.exit_code, 2) << flag << r.err;
    EXPECT_NE(r.err.find(name), std::string::npos) << flag << r.err;
    EXPECT_FALSE(fs::exists(rd)) << flag;
  }
}

TEST(HtpbFleetE2e, DiffRejectsMalformedTolerances) {
  const TempDir dir("difftol");
  const std::string a = (dir.path() / "a.json").string();
  const std::string b = (dir.path() / "b.json").string();
  std::ofstream(a) << "{\"q\": 1.0}\n";
  std::ofstream(b) << "{\"q\": 1.5}\n";

  // A tolerance is read in full or not at all: a strtod prefix would
  // turn "5%" into a 500% tolerance and pass this diff. A bad number is
  // a usage error that names its flag.
  for (const char* flag : {"--rel-tol 5%", "--tol q=1x", "--abs-tol nan",
                           "--max-print 10x"}) {
    const RunResult r = run_cmd(dir, "", HTPB_DIFF_BINARY,
                                "\"" + a + "\" \"" + b + "\" " + flag);
    const std::string name(flag, std::string(flag).find(' '));
    EXPECT_EQ(r.exit_code, 2) << flag << r.err;
    EXPECT_NE(r.err.find(name), std::string::npos) << flag << r.err;
  }
  // The well-formed spelling of the same tolerance still admits the drift.
  EXPECT_EQ(run_cmd(dir, "", HTPB_DIFF_BINARY,
                    "\"" + a + "\" \"" + b + "\" --rel-tol 0.5")
                .exit_code,
            0);
}

TEST(HtpbFleetE2e, DiffReportsTolerancesAndIgnores) {
  const TempDir dir("diff");
  const std::string a = (dir.path() / "a.json").string();
  const std::string b = (dir.path() / "b.json").string();
  std::ofstream(a) << "{\"q\": 1.0, \"rows\": [1, 2], \"timing\": 9}\n";
  std::ofstream(b) << "{\"q\": 1.01, \"rows\": [1, 2], \"timing\": 1}\n";

  // timing is ignored by default; q differs -> exit 1, path named.
  const RunResult strict =
      run_cmd(dir, "", HTPB_DIFF_BINARY, "\"" + a + "\" \"" + b + "\"");
  EXPECT_EQ(strict.exit_code, 1);
  EXPECT_NE(strict.out.find("q:"), std::string::npos) << strict.out;

  // A per-metric tolerance admits the drift.
  EXPECT_EQ(run_cmd(dir, "", HTPB_DIFF_BINARY,
                    "\"" + a + "\" \"" + b + "\" --tol q=0.02")
                .exit_code,
            0);
  // So does ignoring the member outright.
  EXPECT_EQ(run_cmd(dir, "", HTPB_DIFF_BINARY,
                    "\"" + a + "\" \"" + b + "\" --ignore q")
                .exit_code,
            0);
  // Unreadable input is a usage-class failure, distinct from "differs".
  EXPECT_EQ(run_cmd(dir, "", HTPB_DIFF_BINARY,
                    "\"" + a + "\" \"" + (dir.path() / "nope.json").string() +
                        "\"")
                .exit_code,
            2);
}

}  // namespace
