#include "common/subprocess.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace htpb::common {

namespace {

using clock_type = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(clock_type::time_point t0) {
  // htpb-lint: allow(nondet-call) wall-clock deadline for child-process timeout, never feeds results
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

/// Child-side stream redirection; _exit(127) on failure (the parent sees
/// the same code an exec failure produces -- both mean "never ran").
void redirect_or_die(const std::string& path, int target_fd) {
  if (path.empty()) return;
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0 || ::dup2(fd, target_fd) < 0) _exit(127);
  ::close(fd);
}

/// Ends a child the parent can no longer supervise, so it neither runs
/// on unsupervised nor stays a zombie.
void kill_and_reap(pid_t pid) {
  ::kill(pid, SIGKILL);
  while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
  }
}

}  // namespace

SubprocessResult run_subprocess(const std::vector<std::string>& argv,
                                const SubprocessOptions& opts) {
  if (argv.empty()) {
    throw std::runtime_error("run_subprocess: empty argv");
  }
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);

  // htpb-lint: allow(nondet-call) timeout reference point for the child process, never feeds results
  const auto t0 = clock_type::now();
  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error("run_subprocess: fork failed");
  }
  if (pid == 0) {
    // Child. setenv/open are not async-signal-safe in theory; in
    // practice every scheduler-shaped tool does exactly this between
    // fork and exec, and the parent is single-purpose at this point.
    for (const auto& [key, value] : opts.env) {
      ::setenv(key.c_str(), value.c_str(), 1);
    }
    redirect_or_die(opts.stdout_path, STDOUT_FILENO);
    redirect_or_die(opts.stderr_path, STDERR_FILENO);
    ::execvp(cargv[0], cargv.data());
    std::fprintf(stderr, "run_subprocess: exec %s failed: %s\n", cargv[0],
                 std::strerror(errno));
    _exit(127);
  }

  // Parent: block in poll() on a pidfd, which turns readable when the
  // child exits, with the time left to the next deadline (SIGTERM, then
  // SIGKILL) as the poll timeout. After SIGKILL the wait has no deadline --
  // SIGKILL cannot be ignored, so the child terminates.
  //
  // pidfd_open goes through syscall(): glibc 2.36's <sys/pidfd.h> lacks
  // extern "C", so its wrapper does not link from C++.
  const int pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
  if (pidfd < 0) {
    kill_and_reap(pid);
    throw std::runtime_error("run_subprocess: pidfd_open failed");
  }
  SubprocessResult result;
  bool sent_term = false;
  bool sent_kill = false;
  double kill_deadline = 0.0;
  for (;;) {
    const double elapsed = seconds_since(t0);
    if (opts.timeout_seconds > 0.0 && !sent_term &&
        elapsed >= opts.timeout_seconds) {
      ::kill(pid, SIGTERM);
      sent_term = true;
      result.timed_out = true;
      kill_deadline = elapsed + opts.term_grace_seconds;
    } else if (sent_term && !sent_kill && elapsed >= kill_deadline) {
      ::kill(pid, SIGKILL);
      sent_kill = true;
    }
    int wait_ms = -1;
    if (!sent_kill && (sent_term || opts.timeout_seconds > 0.0)) {
      const double deadline = sent_term ? kill_deadline : opts.timeout_seconds;
      // Round up so the wake-up is never early, which would spin.
      wait_ms = static_cast<int>(std::min(
          std::ceil(std::max(deadline - elapsed, 0.0) * 1000.0), 1.0e9));
    }
    pollfd pfd{pidfd, POLLIN, 0};
    const int r = ::poll(&pfd, 1, wait_ms);
    if (r > 0) break;
    if (r < 0 && errno != EINTR) {
      ::close(pidfd);
      kill_and_reap(pid);
      throw std::runtime_error("run_subprocess: poll failed");
    }
  }
  ::close(pidfd);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) {
      throw std::runtime_error("run_subprocess: waitpid failed");
    }
  }

  result.seconds = seconds_since(t0);
  if (WIFEXITED(status)) {
    result.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    result.term_signal = WTERMSIG(status);
    // A signal we sent is a timeout, not a crash of the child's making.
    result.signaled = !result.timed_out;
  }
  return result;
}

}  // namespace htpb::common
