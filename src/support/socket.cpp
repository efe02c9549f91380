#include "support/socket.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

namespace hlsav {

namespace {

Status errno_status(const std::string& what) {
  return Status::io_error(what + ": " + std::strerror(errno));
}

/// sockaddr_un setup shared by listen/connect; sun_path is short.
StatusOr<sockaddr_un> make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    return Status::invalid_argument("socket path too long (" + std::to_string(path.size()) +
                                    " bytes): " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

StatusOr<int> unix_listen(const std::string& path, int backlog) {
  StatusOr<sockaddr_un> addr = make_addr(path);
  if (!addr.ok()) return addr.status();
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return errno_status("socket failed");
  ::unlink(path.c_str());  // a stale socket file survives a daemon crash
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&*addr), sizeof *addr) != 0) {
    Status st = errno_status("cannot bind '" + path + "'");
    ::close(fd);
    return st;
  }
  if (::listen(fd, backlog) != 0) {
    Status st = errno_status("cannot listen on '" + path + "'");
    ::close(fd);
    return st;
  }
  return fd;
}

StatusOr<int> unix_connect(const std::string& path) {
  StatusOr<sockaddr_un> addr = make_addr(path);
  if (!addr.ok()) return addr.status();
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return errno_status("socket failed");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&*addr), sizeof *addr) != 0) {
    Status st = errno_status("cannot connect to '" + path + "'");
    ::close(fd);
    return st;
  }
  return fd;
}

StatusOr<int> unix_accept(int listen_fd, int timeout_ms) {
  pollfd pfd{listen_fd, POLLIN, 0};
  int n;
  do {
    n = ::poll(&pfd, 1, timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n < 0) return errno_status("poll failed");
  if (n == 0) return -1;  // timeout: the caller polls its shutdown flag
  int fd;
  do {
    fd = ::accept(listen_fd, nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return errno_status("accept failed");
  int flags = ::fcntl(fd, F_GETFD, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
  return fd;
}

Status send_bytes(int fd, std::string_view data) {
  const char* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    // MSG_NOSIGNAL: a vanished client is a Status, never a SIGPIPE.
    ssize_t n = ::send(fd, p, left, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        return Status::unavailable("peer disconnected");
      }
      return errno_status("send failed");
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return Status::ok_status();
}

Status send_line(int fd, const std::string& line) { return send_bytes(fd, line + "\n"); }

Status send_bytes_interruptible(int fd, std::string_view data, const std::atomic<bool>& stop,
                                int poll_ms) {
  const char* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    if (stop.load(std::memory_order_relaxed)) {
      return Status::cancelled("send aborted by stop flag");
    }
    // MSG_DONTWAIT instead of O_NONBLOCK on the fd: the flag is
    // per-call, so the fd stays blocking for any other user.
    ssize_t n = ::send(fd, p, left, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      p += n;
      left -= static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        return Status::unavailable("peer disconnected");
      }
      if (errno != EAGAIN && errno != EWOULDBLOCK) return errno_status("send failed");
    }
    pollfd pfd{fd, POLLOUT, 0};
    int r;
    do {
      r = ::poll(&pfd, 1, poll_ms);
    } while (r < 0 && errno == EINTR);
    if (r < 0) return errno_status("poll failed");
    // r == 0: the peer's buffer is still full; loop to re-check `stop`.
  }
  return Status::ok_status();
}

Status send_line_interruptible(int fd, const std::string& line, const std::atomic<bool>& stop,
                               int poll_ms) {
  return send_bytes_interruptible(fd, line + "\n", stop, poll_ms);
}

Status LineReader::fill(int timeout_ms) {
  if (eof_) return Status::unavailable("peer closed the connection");
  if (timeout_ms > 0) {
    pollfd pfd{fd_, POLLIN, 0};
    int n;
    do {
      n = ::poll(&pfd, 1, timeout_ms);
    } while (n < 0 && errno == EINTR);
    if (n < 0) return errno_status("poll failed");
    if (n == 0) {
      return Status::error(StatusCode::kBudgetExceeded,
                           "timed out after " + std::to_string(timeout_ms) + "ms");
    }
  }
  char chunk[4096];
  ssize_t n;
  do {
    n = ::read(fd_, chunk, sizeof chunk);
  } while (n < 0 && errno == EINTR);
  if (n < 0) return errno_status("read failed");
  if (n == 0) {
    eof_ = true;
    return Status::unavailable("peer closed the connection");
  }
  buf_.append(chunk, static_cast<std::size_t>(n));
  return Status::ok_status();
}

StatusOr<std::string> LineReader::read_line(int timeout_ms) {
  for (;;) {
    std::size_t eol = buf_.find('\n');
    if (eol != std::string::npos) {
      std::string line = buf_.substr(0, eol);
      buf_.erase(0, eol + 1);
      return line;
    }
    Status st = fill(timeout_ms);
    if (!st.ok()) {
      // A half-written frame is a different failure from a clean close
      // or an idle timeout: the peer (or the wire) died mid-sentence.
      // Surface it typed so callers don't mistake a torn frame for an
      // orderly end of stream.
      if (!buf_.empty()) {
        std::string detail =
            " (" + std::to_string(buf_.size()) + " bytes of a partial line buffered)";
        if (st.code() == StatusCode::kUnavailable) {
          return Status::io_error("peer closed mid-line" + detail);
        }
        if (st.code() == StatusCode::kBudgetExceeded) {
          return Status::error(StatusCode::kBudgetExceeded, st.message() + detail);
        }
      }
      return st;
    }
  }
}

StatusOr<std::string> LineReader::read_bytes(std::size_t n, int timeout_ms) {
  // A payload can be megabytes (a daemon's whole trace): size the buffer
  // once, rather than doubling it chunk by chunk, and hand it over
  // without a copy when it holds nothing else. `n` comes from the peer,
  // so the up-front reservation is capped.
  constexpr std::size_t kMaxReserve = std::size_t{64} << 20;
  buf_.reserve(std::min(n, kMaxReserve));
  while (buf_.size() < n) {
    Status st = fill(timeout_ms);
    if (!st.ok()) {
      if (!buf_.empty() && st.code() == StatusCode::kUnavailable) {
        return Status::io_error("peer closed mid-payload (" + std::to_string(buf_.size()) +
                                " of " + std::to_string(n) + " bytes received)");
      }
      return st;
    }
  }
  if (buf_.size() == n) return std::exchange(buf_, {});
  std::string out = buf_.substr(0, n);
  buf_.erase(0, n);
  return out;
}

}  // namespace hlsav
