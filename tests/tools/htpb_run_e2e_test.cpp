// End-to-end driver contract: shell the REAL htpb_run binary (path baked
// in as HTPB_RUN_BINARY) through a scratch directory and assert on its
// observable surface -- exit codes, stderr diagnostics, and the JSON it
// writes. In-process runner tests can't catch argv plumbing, exit-code
// mapping, or file-emission regressions; this one does.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.hpp"

#ifndef HTPB_RUN_BINARY
#error "HTPB_RUN_BINARY must be defined to the htpb_run executable path"
#endif

namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Scratch directory under the ctest working dir, wiped on entry and exit.
class TempDir {
 public:
  TempDir() : path_(fs::current_path() / "htpb_run_e2e_tmp") {
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
  int exit_code = -1;
  std::string out;
  std::string err;
};

RunResult run_tool(const TempDir& dir, const std::string& args) {
  const fs::path out = dir.path() / "stdout.txt";
  const fs::path err = dir.path() / "stderr.txt";
  const std::string cmd = std::string("\"") + HTPB_RUN_BINARY + "\" " +
                          args + " > \"" + out.string() + "\" 2> \"" +
                          err.string() + "\"";
  const int status = std::system(cmd.c_str());
  RunResult r;
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  r.out = slurp(out);
  r.err = slurp(err);
  return r;
}

TEST(HtpbRunE2e, ClosedLoopQuickRunEmitsTradeoffCurves) {
  const TempDir dir;
  const fs::path json_out = dir.path() / "closed_loop.json";
  const RunResult r = run_tool(
      dir, "--scenario defense-closed-loop --quick --threads 2 --json \"" +
               json_out.string() + "\"");
  ASSERT_EQ(r.exit_code, 0) << r.err;
  ASSERT_TRUE(fs::exists(json_out)) << r.err;

  const htpb::json::Value result = htpb::json::parse(slurp(json_out));
  const htpb::json::Object& root = result.as_object();
  ASSERT_NE(root.find("scenario"), nullptr);
  EXPECT_EQ(root.find("scenario")->as_string(), "defense-closed-loop");
  EXPECT_EQ(root.find("quick")->as_bool(), true);

  // 1 quick placement x {static, adaptive} x {none + 3 policies}, every
  // policy name present on both Trojan sides.
  ASSERT_NE(root.find("arms"), nullptr);
  const htpb::json::Array& arms = root.find("arms")->as_array();
  ASSERT_EQ(arms.size(), 8U);
  int seen[2][4] = {};
  for (const auto& v : arms) {
    const htpb::json::Object& row = v.as_object();
    const int t = row.find("trojan")->as_string() == "adaptive" ? 1 : 0;
    const std::string& resp = row.find("response")->as_string();
    const int p = resp == "none"         ? 0
                  : resp == "quarantine" ? 1
                  : resp == "throttle"   ? 2
                                         : 3;
    ++seen[t][p];
  }
  for (int t = 0; t < 2; ++t) {
    for (int p = 0; p < 4; ++p) EXPECT_EQ(seen[t][p], 1) << t << "," << p;
  }

  // The acceptance headline survives the full CLI path: the adaptive
  // Trojan's detection rate is below the equal-duty static Trojan's.
  const htpb::json::Object& cmp =
      root.find("duty_comparison")->as_object();
  EXPECT_LT(cmp.find("adaptive")->as_object().find("detection_rate")
                ->as_double(),
            cmp.find("static")->as_object().find("detection_rate")
                ->as_double());
}

TEST(HtpbRunE2e, MissingSpecFileFailsWithThePathNamed) {
  const TempDir dir;
  const fs::path missing = dir.path() / "no_such_spec.json";
  const RunResult r =
      run_tool(dir, "--scenario \"" + missing.string() + "\"");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("no_such_spec.json"), std::string::npos) << r.err;
  // ... and the OS reason, not just the name.
  EXPECT_NE(r.err.find("No such file"), std::string::npos) << r.err;
}

TEST(HtpbRunE2e, MalformedSpecFileReportsPathAndParsePosition) {
  const TempDir dir;
  const fs::path torn = dir.path() / "torn_spec.json";
  std::ofstream(torn) << "{\"name\": \"x\", \"kind\": ";
  const RunResult r = run_tool(dir, "--scenario \"" + torn.string() + "\"");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("torn_spec.json"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("at offset"), std::string::npos) << r.err;
}

TEST(HtpbRunE2e, MistypedQuickOverlayFailsAtLoadNamingTheFile) {
  const TempDir dir;
  const fs::path spec = dir.path() / "typo_quick.json";
  std::ofstream(spec) << R"({"schema_version": 1, "name": "typo",
                             "kind": "config_report",
                             "quick": {"epoch": {"measure": 2}}})";
  // No --quick: the overlay is checked when the file loads, not only
  // when a --quick run applies it.
  const RunResult r = run_tool(dir, "--scenario \"" + spec.string() + "\"");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("typo_quick.json"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("quick overlay"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("\"epoch\""), std::string::npos) << r.err;
  EXPECT_EQ(r.out, "");
}

TEST(HtpbRunE2e, NegativeAxisValuesFailNamingTheField) {
  const TempDir dir;
  // A negative toggle period used to run as the static arm, reported as
  // "period": -2; a negative roc.placements dropped the roc section.
  const struct {
    const char* args;
    const char* field;
  } cases[] = {
      {"--scenario attack-comparison --set 'axes.toggle_periods=[0,-2]'",
       "axes.toggle_periods"},
      {"--scenario defense-roc --set axes.roc.placements=-1",
       "axes.roc.placements"},
  };
  for (const auto& c : cases) {
    const RunResult r = run_tool(dir, c.args);
    EXPECT_EQ(r.exit_code, 1) << c.args << r.err;
    EXPECT_NE(r.err.find(c.field), std::string::npos) << r.err;
    EXPECT_EQ(r.out, "") << c.args;
  }
}

TEST(HtpbRunE2e, BadSetOverridesFailLoudly) {
  const TempDir dir;
  // A typo'd key parses as JSON surgery but is rejected by the strict
  // spec reader, naming the bad key.
  const RunResult typo = run_tool(
      dir,
      "--scenario defense-closed-loop --quick --set "
      "response.sanction_epoch=2");
  EXPECT_EQ(typo.exit_code, 1);
  EXPECT_NE(typo.err.find("sanction_epoch"), std::string::npos) << typo.err;

  // Grammar violation (no '='): usage error, distinct exit code.
  const RunResult noeq =
      run_tool(dir, "--scenario defense-closed-loop --set epochs.measure");
  EXPECT_EQ(noeq.exit_code, 2);
  EXPECT_NE(noeq.err.find("key=value"), std::string::npos) << noeq.err;

  // An out-of-range value is caught by validate(), not simulated.
  const RunResult range = run_tool(
      dir,
      "--scenario defense-closed-loop --quick --set "
      "response.sanction_epochs=0");
  EXPECT_EQ(range.exit_code, 1);
  EXPECT_NE(range.err.find("sanction_epochs"), std::string::npos)
      << range.err;

  // Hostile values that used to run to exit 0 on nonsense: each fails
  // validation before any simulation, naming its field.
  struct Hostile {
    const char* args;
    const char* field;
  };
  for (const Hostile& h : {
           Hostile{"--scenario table1 --set system.width=65536 --set "
                   "system.height=65537",
                   "width x height"},
           // Past kMaxNodes: ran as an 8192-node chip.
           Hostile{"--scenario table1 --set system.width=128 --set "
                   "system.height=64 --set system.epoch_cycles=5000",
                   "width x height"},
           Hostile{"--scenario budgeter-ablation --quick --set "
                   "system.epoch_cycles=0",
                   "system.epoch_cycles"},
           // Past kMaxEpochCycles: ran for minutes.
           Hostile{"--scenario budgeter-ablation --quick --set "
                   "system.epoch_cycles=4000000000",
                   "system.epoch_cycles"},
           Hostile{"--scenario budgeter-ablation --quick --set "
                   "system.budget_fraction=-1",
                   "system.budget_fraction"},
           Hostile{"--scenario budgeter-ablation --quick --set "
                   "workload.threads_per_app=-5",
                   "workload.threads_per_app"},
           // Every core reported in its first epoch (64 victims flagged
           // of 32, 128 false positives on 64 cores).
           Hostile{"--scenario defense-evaluation --quick --set "
                   "detector.confirm_epochs=0",
                   "detector.confirm_epochs"},
           Hostile{"--scenario defense-evaluation --quick --set "
                   "detector.low_ratio=3.0",
                   "detector.low_ratio"},
           Hostile{"--scenario defense-evaluation --quick --set "
                   "detector.history_alpha=7",
                   "detector.history_alpha"},
           // Past the CONFIG_CMD fields: 700 and 1000 both ran as 655.35,
           // 0.004 and 0.001 both as 0%.
           Hostile{"--scenario budgeter-ablation --quick --set "
                   "trojan.attacker_boost=700",
                   "trojan.attacker_boost"},
           Hostile{"--scenario budgeter-ablation --quick --set "
                   "trojan.attacker_boost=1000",
                   "trojan.attacker_boost"},
           Hostile{"--scenario budgeter-ablation --quick --set "
                   "trojan.victim_scale=0.004",
                   "trojan.victim_scale"},
           Hostile{"--scenario budgeter-ablation --quick --set "
                   "trojan.victim_scale=0.001",
                   "trojan.victim_scale"},
           // Two packet starts per cycle from one NI.
           Hostile{"--scenario attack-comparison --quick --set "
                   "axes.flood_rate=2",
                   "axes.flood_rate"},
       }) {
    const RunResult r = run_tool(dir, h.args);
    EXPECT_EQ(r.exit_code, 1) << h.args << r.err;
    EXPECT_NE(r.err.find(h.field), std::string::npos) << h.args << r.err;
    EXPECT_EQ(r.out, "") << h.args;
  }
}

TEST(HtpbRunE2e, OutOfRangeThreadsFailNamingTheFlag) {
  const TempDir dir;
  // A count past int must not wrap to a small pool through a narrowing
  // cast (2^32 + 1 -> 1), and the pool is capped at 4096.
  for (const char* threads : {"4294967297", "5000", "3000000000", "-1"}) {
    const RunResult r =
        run_tool(dir, std::string("--scenario table1 --threads ") + threads);
    EXPECT_EQ(r.exit_code, 2) << threads << r.err;
    EXPECT_NE(r.err.find("--threads"), std::string::npos) << r.err;
    EXPECT_EQ(r.out, "") << threads;
  }
}

TEST(HtpbRunE2e, UnknownArgumentPrintsUsage) {
  const TempDir dir;
  for (const char* args : {"--scenarios defense-closed-loop",
                           "--scenario table1 --checkpoint-dir x"}) {
    const RunResult r = run_tool(dir, args);
    EXPECT_EQ(r.exit_code, 2) << args;
    EXPECT_NE(r.err.find("usage:"), std::string::npos) << args << r.err;
  }
}

}  // namespace
