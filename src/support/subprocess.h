// Subprocess management with Status plumbing.
//
// The campaign service supervises a pool of worker subprocesses whose
// whole point is that they may die arbitrarily (segfault, OOM-kill,
// kill -9, watchdog overrun). This wrapper keeps the supervisor's view
// simple: spawn with an argv, write the child's stdin and read its
// stdout through pipes, poll for exit without blocking, and classify
// every death as a clean exit code or a terminating signal -- never an
// exception.
#pragma once

#include <sys/types.h>

#include <optional>
#include <string>
#include <vector>

#include "support/status.h"

namespace hlsav {

/// How a child ended: normal exit (signaled == false, `value` is the
/// exit code) or killed by a signal (signaled == true, `value` is the
/// signal number).
struct ExitInfo {
  bool signaled = false;
  int value = 0;

  [[nodiscard]] bool clean() const { return !signaled && value == 0; }
  /// "exit 3" / "signal 9 (Killed)".
  [[nodiscard]] std::string describe() const;
};

/// One spawned child. Movable, not copyable (owns the pipe fds).
/// The destructor never blocks and never kills: a still-running child
/// is the caller's responsibility (the supervisor always reaps).
class Subprocess {
 public:
  /// fork/execvp of `argv` (argv[0] is the binary, PATH-resolved). With
  /// `capture_stdout` the child's stdout is a pipe readable via
  /// stdout_fd() (O_NONBLOCK so a supervisor poll loop never sticks);
  /// stderr always passes through to the parent's. With `pipe_stdin`
  /// the child's stdin is a pipe fed by write_stdin() and ended by
  /// close_stdin(); otherwise it is the parent's. With
  /// `kill_on_parent_death` (Linux) the kernel delivers SIGKILL to the
  /// child when the spawning thread exits -- a daemon killed by -9
  /// cannot leave orphan workers running sites that a restarted daemon
  /// is about to hand out again. The pipes are close-on-exec, so a
  /// later child never holds another child's stdin open.
  [[nodiscard]] static StatusOr<Subprocess> spawn(const std::vector<std::string>& argv,
                                                  bool capture_stdout,
                                                  bool kill_on_parent_death = false,
                                                  bool pipe_stdin = false);

  Subprocess(Subprocess&& other) noexcept;
  Subprocess& operator=(Subprocess&& other) noexcept;
  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;
  ~Subprocess();

  [[nodiscard]] pid_t pid() const { return pid_; }
  /// -1 when stdout was not captured or the pipe was closed.
  [[nodiscard]] int stdout_fd() const { return stdout_fd_; }

  /// Non-blocking reap (waitpid WNOHANG). nullopt while still running;
  /// the ExitInfo once it has ended (cached: safe to call again).
  [[nodiscard]] std::optional<ExitInfo> poll();

  /// Blocking reap.
  [[nodiscard]] ExitInfo wait();

  /// Sends `sig` (default SIGKILL). No-op once the child was reaped.
  void kill(int sig);

  /// Drains whatever is currently readable from the stdout pipe into
  /// `buf` (non-blocking). Returns false once the pipe has reached EOF
  /// and been closed.
  bool read_stdout(std::string& buf);

  /// Writes `data` (at most PIPE_BUF bytes, so one atomic write) to the
  /// child's stdin pipe. A child that has exited makes this a kIoError,
  /// never a SIGPIPE.
  [[nodiscard]] Status write_stdin(const std::string& data);

  /// Closes the stdin pipe: the child reads EOF. Idempotent.
  void close_stdin();

 private:
  Subprocess() = default;

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int stdin_fd_ = -1;
  std::optional<ExitInfo> exit_;
};

}  // namespace hlsav
