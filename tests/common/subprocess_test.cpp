// run_subprocess contract: exit codes and output capture, env plumbing,
// the SIGTERM -> SIGKILL timeout escalation, and exec-failure reporting.
#include "common/subprocess.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace {

namespace fs = std::filesystem;

using htpb::common::run_subprocess;
using htpb::common::SubprocessOptions;
using htpb::common::SubprocessResult;

class TempDir {
 public:
  TempDir() : path_(fs::current_path() / "subprocess_tmp") {
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

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Subprocess, CapturesStreamsAndExitCode) {
  const TempDir dir;
  SubprocessOptions opts;
  opts.stdout_path = (dir.path() / "out").string();
  opts.stderr_path = (dir.path() / "err").string();
  const SubprocessResult r = run_subprocess(
      {"/bin/sh", "-c", "echo to-stdout; echo to-stderr >&2; exit 3"}, opts);
  EXPECT_FALSE(r.timed_out);
  EXPECT_FALSE(r.signaled);
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_EQ(slurp(dir.path() / "out"), "to-stdout\n");
  EXPECT_EQ(slurp(dir.path() / "err"), "to-stderr\n");
}

TEST(Subprocess, EnvReachesTheChild) {
  const TempDir dir;
  SubprocessOptions opts;
  opts.env = {{"HTPB_SUBPROCESS_PROBE", "visible"}};
  opts.stdout_path = (dir.path() / "out").string();
  const SubprocessResult r = run_subprocess(
      {"/bin/sh", "-c", "printf %s \"$HTPB_SUBPROCESS_PROBE\""}, opts);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(slurp(dir.path() / "out"), "visible");
}

TEST(Subprocess, TimeoutSendsTermAndReportsTimedOut) {
  SubprocessOptions opts;
  opts.timeout_seconds = 0.2;
  opts.term_grace_seconds = 5.0;
  const SubprocessResult r = run_subprocess({"/bin/sleep", "30"}, opts);
  EXPECT_TRUE(r.timed_out);
  // The kill we sent is a timeout verdict, not a child crash.
  EXPECT_FALSE(r.signaled);
  EXPECT_LT(r.seconds, 4.0);
}

TEST(Subprocess, TermIgnoringChildIsKilledAfterGrace) {
  SubprocessOptions opts;
  opts.timeout_seconds = 0.2;
  opts.term_grace_seconds = 0.3;
  // The hang fault's worst case: SIGTERM is ignored, only the KILL
  // escalation ends the child. `exec` keeps the TERM-ignoring child a
  // single process (an ignored signal stays ignored across exec), so no
  // orphaned `sleep` outlives the KILL holding the test's output open.
  const SubprocessResult r =
      run_subprocess({"/bin/sh", "-c", "trap '' TERM; exec sleep 30"}, opts);
  EXPECT_TRUE(r.timed_out);
  EXPECT_LT(r.seconds, 10.0);
}

TEST(Subprocess, ChildKilledByItsOwnSignalIsACrash) {
  SubprocessOptions opts;
  const SubprocessResult r =
      run_subprocess({"/bin/sh", "-c", "kill -ABRT $$"}, opts);
  EXPECT_FALSE(r.timed_out);
  EXPECT_TRUE(r.signaled);
  EXPECT_EQ(r.term_signal, SIGABRT);
}

TEST(Subprocess, ExecFailureExitsWith127) {
  const TempDir dir;
  SubprocessOptions opts;
  opts.stderr_path = (dir.path() / "err").string();
  const SubprocessResult r =
      run_subprocess({"/no/such/binary/anywhere"}, opts);
  EXPECT_EQ(r.exit_code, 127);
  EXPECT_NE(slurp(dir.path() / "err").find("exec"), std::string::npos);
}

TEST(Subprocess, EmptyArgvThrows) {
  EXPECT_THROW((void)run_subprocess({}, {}), std::runtime_error);
}

}  // namespace
