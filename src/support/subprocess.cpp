#include "support/subprocess.h"

#include <fcntl.h>
#include <signal.h>
#include <string.h>
#include <sys/wait.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <cerrno>
#include <cstring>
#include <initializer_list>
#include <utility>

namespace hlsav {

std::string ExitInfo::describe() const {
  if (!signaled) return "exit " + std::to_string(value);
  std::string out = "signal " + std::to_string(value);
  const char* name = strsignal(value);
  if (name != nullptr) {
    out += " (";
    out += name;
    out += ')';
  }
  return out;
}

StatusOr<Subprocess> Subprocess::spawn(const std::vector<std::string>& argv,
                                       bool capture_stdout, bool kill_on_parent_death,
                                       bool pipe_stdin, const std::string& stderr_path) {
  if (argv.empty()) return Status::invalid_argument("cannot spawn an empty argv");

  int out_fds[2] = {-1, -1};
  int in_fds[2] = {-1, -1};
  int err_fd = -1;
  auto close_all = [&] {
    for (int fd : {out_fds[0], out_fds[1], in_fds[0], in_fds[1], err_fd}) {
      if (fd >= 0) ::close(fd);
    }
  };
  if ((capture_stdout && ::pipe2(out_fds, O_CLOEXEC) != 0) ||
      (pipe_stdin && ::pipe2(in_fds, O_CLOEXEC) != 0)) {
    Status st = Status::io_error(std::string("pipe failed: ") + std::strerror(errno));
    close_all();
    return st;
  }
  if (!stderr_path.empty()) {
    err_fd = ::open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (err_fd < 0) {
      Status st = Status::io_error("cannot open '" + stderr_path + "': " + std::strerror(errno));
      close_all();
      return st;
    }
  }

  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);

  pid_t pid = ::fork();
  if (pid < 0) {
    Status st = Status::io_error(std::string("fork failed: ") + std::strerror(errno));
    close_all();
    return st;
  }
  if (pid == 0) {
    // Child. Only async-signal-safe calls until exec.
#ifdef __linux__
    if (kill_on_parent_death) {
      (void)::prctl(PR_SET_PDEATHSIG, SIGKILL);
      // The parent may already have died between fork and prctl; the
      // death signal only covers deaths *after* the call, so check.
      if (::getppid() == 1) ::_exit(127);
    }
#else
    (void)kill_on_parent_death;
#endif
    // dup2 clears close-on-exec on its copy. A pipe end that already is
    // the target (the parent had that fd closed) must clear it itself.
    for (auto [fd, target] : {std::pair{capture_stdout ? out_fds[1] : -1, STDOUT_FILENO},
                              std::pair{pipe_stdin ? in_fds[0] : -1, STDIN_FILENO},
                              std::pair{err_fd, STDERR_FILENO}}) {
      if (fd == target) {
        (void)::fcntl(fd, F_SETFD, 0);
      } else if (fd >= 0) {
        (void)::dup2(fd, target);
      }
    }
    ::execvp(cargv[0], cargv.data());
    // exec failed: report on the (possibly redirected) stderr and die with a
    // recognizable code.
    const char* msg = "exec failed: ";
    ssize_t ignored = ::write(STDERR_FILENO, msg, ::strlen(msg));
    ignored = ::write(STDERR_FILENO, cargv[0], ::strlen(cargv[0]));
    ignored = ::write(STDERR_FILENO, "\n", 1);
    (void)ignored;
    ::_exit(127);
  }

  if (err_fd >= 0) ::close(err_fd);
  Subprocess p;
  p.pid_ = pid;
  if (capture_stdout) {
    ::close(out_fds[1]);
    int flags = ::fcntl(out_fds[0], F_GETFL, 0);
    if (flags >= 0) (void)::fcntl(out_fds[0], F_SETFL, flags | O_NONBLOCK);
    p.stdout_fd_ = out_fds[0];
  }
  if (pipe_stdin) {
    ::close(in_fds[0]);
    p.stdin_fd_ = in_fds[1];
  }
  return p;
}

Subprocess::Subprocess(Subprocess&& other) noexcept
    : pid_(std::exchange(other.pid_, -1)),
      stdout_fd_(std::exchange(other.stdout_fd_, -1)),
      stdin_fd_(std::exchange(other.stdin_fd_, -1)),
      exit_(std::exchange(other.exit_, std::nullopt)) {}

Subprocess& Subprocess::operator=(Subprocess&& other) noexcept {
  if (this != &other) {
    if (stdout_fd_ >= 0) ::close(stdout_fd_);
    close_stdin();
    pid_ = std::exchange(other.pid_, -1);
    stdout_fd_ = std::exchange(other.stdout_fd_, -1);
    stdin_fd_ = std::exchange(other.stdin_fd_, -1);
    exit_ = std::exchange(other.exit_, std::nullopt);
  }
  return *this;
}

Subprocess::~Subprocess() {
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  close_stdin();
}

namespace {

ExitInfo decode_wait_status(int status) {
  ExitInfo info;
  if (WIFSIGNALED(status)) {
    info.signaled = true;
    info.value = WTERMSIG(status);
  } else {
    info.value = WIFEXITED(status) ? WEXITSTATUS(status) : 1;
  }
  return info;
}

}  // namespace

std::optional<ExitInfo> Subprocess::poll() {
  if (exit_.has_value()) return exit_;
  if (pid_ < 0) return std::nullopt;
  int status = 0;
  pid_t r = ::waitpid(pid_, &status, WNOHANG);
  if (r == pid_) exit_ = decode_wait_status(status);
  return exit_;
}

ExitInfo Subprocess::wait() {
  if (exit_.has_value()) return *exit_;
  int status = 0;
  pid_t r;
  do {
    r = ::waitpid(pid_, &status, 0);
  } while (r < 0 && errno == EINTR);
  exit_ = r == pid_ ? decode_wait_status(status) : ExitInfo{false, 1};
  return *exit_;
}

void Subprocess::kill(int sig) {
  if (pid_ < 0 || exit_.has_value()) return;
  (void)::kill(pid_, sig);
}

bool Subprocess::read_stdout(std::string& buf) {
  if (stdout_fd_ < 0) return false;
  char chunk[4096];
  for (;;) {
    ssize_t n = ::read(stdout_fd_, chunk, sizeof chunk);
    if (n > 0) {
      buf.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {  // EOF: child closed its end (usually by exiting)
      ::close(stdout_fd_);
      stdout_fd_ = -1;
      return false;
    }
    if (errno == EINTR) continue;
    return errno == EAGAIN || errno == EWOULDBLOCK;  // drained for now
  }
}

Status Subprocess::write_stdin(const std::string& data) {
  // Writing to a pipe whose reader has exited raises SIGPIPE, which
  // would kill the caller: block it on this thread and consume the one
  // a failed write leaves pending.
  sigset_t pipe_set;
  sigset_t old_set;
  sigemptyset(&pipe_set);
  sigaddset(&pipe_set, SIGPIPE);
  (void)::pthread_sigmask(SIG_BLOCK, &pipe_set, &old_set);
  ssize_t n = 0;
  do {
    n = ::write(stdin_fd_, data.data(), data.size());  // <= PIPE_BUF: all or nothing
  } while (n < 0 && errno == EINTR);
  int err = n < 0 ? errno : 0;
  if (err == EPIPE) {
    timespec zero{};
    (void)::sigtimedwait(&pipe_set, nullptr, &zero);
  }
  (void)::pthread_sigmask(SIG_SETMASK, &old_set, nullptr);
  if (err != 0) return Status::io_error(std::string("write to child stdin: ") + std::strerror(err));
  return Status::ok_status();
}

void Subprocess::close_stdin() {
  if (stdin_fd_ >= 0) ::close(stdin_fd_);
  stdin_fd_ = -1;
}

}  // namespace hlsav
