#include "support/io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "support/wal.h"

namespace hlsav {

std::string temp_sibling_path(const std::string& path) {
  return path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
}

Status write_file_atomic(const std::string& path, std::string_view content) {
  const std::string tmp = temp_sibling_path(path);
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::io_error("cannot open '" + tmp + "' for writing: " + std::strerror(errno));
  }
  Status written = wal::write_and_sync(fd, content, tmp);
  if (!written.ok()) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return written;
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return Status::io_error("close of '" + tmp + "': " + std::strerror(errno));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    int saved = errno;
    ::unlink(tmp.c_str());
    return Status::io_error("rename '" + tmp + "' -> '" + path +
                            "': " + std::strerror(saved));
  }
  return Status::ok_status();
}

Status fsync_dir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return Status::io_error("cannot open directory '" + dir + "': " + std::strerror(errno));
  }
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    int saved = errno;
    ::close(fd);
    return Status::io_error("fsync of directory '" + dir + "': " + std::strerror(saved));
  }
  ::close(fd);
  return Status::ok_status();
}

}  // namespace hlsav
