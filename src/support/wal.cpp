#include "support/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "support/io.h"

namespace hlsav::wal {

namespace {

const IoHooks* g_hooks = nullptr;

Status errno_status(const std::string& what, const std::string& path) {
  return Status::io_error(what + " '" + path + "': " + std::strerror(errno));
}

std::string parent_dir(const std::string& path) {
  std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

}  // namespace

void set_io_hooks_for_test(const IoHooks* hooks) { g_hooks = hooks; }

Status write_and_sync(int fd, std::string_view data, const std::string& path) {
  const char* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    ssize_t n = g_hooks != nullptr && g_hooks->write_fn != nullptr
                    ? g_hooks->write_fn(fd, p, left)
                    : ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_status("write to", path);
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  // Durable before anyone acts on it: loaders trust every complete line.
  int rc = g_hooks != nullptr && g_hooks->fsync_fn != nullptr ? g_hooks->fsync_fn(fd)
                                                              : ::fsync(fd);
  if (rc != 0) return errno_status("fsync of", path);
  return Status::ok_status();
}

Status create(const std::string& path, std::string_view header) {
  HLSAV_RETURN_IF_ERROR(write_file_atomic(path, std::string(header) + "\n"));
  // The rename made the header durable; the directory entry needs its
  // own fsync or a power loss can forget the file existed at all.
  return fsync_dir(parent_dir(path));
}

StatusOr<Prefix> load(const std::string& path,
                      const std::function<bool(const std::string&)>& accept) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return Status::io_error("cannot read '" + path + "'");
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string data = buf.str();
  Prefix out;
  out.total_bytes = data.size();
  std::size_t pos = 0;
  for (;;) {
    std::size_t eol = data.find('\n', pos);
    if (eol == std::string::npos) break;  // no newline: torn tail
    std::string line = data.substr(pos, eol - pos);
    if (!accept(line)) break;
    out.lines.push_back(std::move(line));
    pos = eol + 1;
    out.valid_bytes = pos;
  }
  return out;
}

StatusOr<std::unique_ptr<Log>> Log::open(std::string path, std::uint64_t valid_bytes) {
  int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return errno_status("cannot open", path);
  // Drop a torn tail before the first new record lands behind it.
  if (valid_bytes != kKeepAll && ::ftruncate(fd, static_cast<off_t>(valid_bytes)) != 0) {
    Status st = errno_status("cannot truncate", path);
    ::close(fd);
    return st;
  }
  return std::unique_ptr<Log>(new Log(std::move(path), fd));
}

Log::~Log() { ::close(fd_); }

Status Log::append(std::string_view record) {
  std::string line(record);
  line += '\n';
  std::lock_guard<std::mutex> lock(mu_);
  return write_and_sync(fd_, line, path_);
}

}  // namespace hlsav::wal
