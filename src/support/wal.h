// Write-ahead log: newline-terminated records, appended by one writer
// and fsync'd one by one.
//
// The campaign journal (sim/journal.*), the hlsavd job spool
// (serve/spool.*) and the daemon's event log (serve/events.*) share
// this file shape. A crash can only tear the last record, so a loader
// that stops at the first record it cannot parse -- and cuts that tail
// away before the next append -- recovers exactly what was durable:
//
//  * create() writes the header line to a temp sibling, fsyncs it,
//    renames it into place and fsyncs the directory, so a crash leaves
//    either no file or a whole header.
//  * load() returns the longest prefix of complete lines the caller's
//    parser accepts, and how many bytes that prefix spans.
//  * Log::open() cuts a torn tail; Log::append() writes one record with
//    an EINTR-safe write loop and fsyncs it.
//
// Every write and fsync goes through injectable hooks, so tests can
// fail them with a chosen errno on a healthy filesystem.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "support/status.h"

namespace hlsav::wal {

struct IoHooks {
  ssize_t (*write_fn)(int fd, const void* buf, std::size_t count);
  int (*fsync_fn)(int fd);
};

/// Installs `hooks` for every later write and fsync (nullptr restores
/// the real syscalls). Test-only; not thread-safe against in-flight
/// writes.
void set_io_hooks_for_test(const IoHooks* hooks);

/// Writes all of `data` to `fd` (short writes and EINTR retried), then
/// fsyncs it. Errors are kIoError naming `path` and the errno text.
[[nodiscard]] Status write_and_sync(int fd, std::string_view data, const std::string& path);

/// Creates `path` holding `header` plus a newline: temp sibling, fsync,
/// rename, directory fsync.
[[nodiscard]] Status create(const std::string& path, std::string_view header);

/// The durable prefix of a log file.
struct Prefix {
  /// Accepted lines in file order, newlines stripped.
  std::vector<std::string> lines;
  /// Bytes spanned by `lines`; anything past it is a torn tail.
  std::uint64_t valid_bytes = 0;
  std::uint64_t total_bytes = 0;

  [[nodiscard]] bool torn() const { return valid_bytes < total_bytes; }
};

/// Reads `path` line by line until a line lacks its newline or
/// `accept` rejects it. kIoError when the file cannot be read.
[[nodiscard]] StatusOr<Prefix> load(const std::string& path,
                                    const std::function<bool(const std::string&)>& accept);

/// Append handle. Thread-safe: each record lands whole.
class Log {
 public:
  static constexpr std::uint64_t kKeepAll = ~0ull;

  /// Opens `path` for appending, creating it when missing, after
  /// cutting it to `valid_bytes` (kKeepAll keeps every byte).
  [[nodiscard]] static StatusOr<std::unique_ptr<Log>> open(std::string path,
                                                           std::uint64_t valid_bytes = kKeepAll);

  ~Log();
  Log(const Log&) = delete;
  Log& operator=(const Log&) = delete;

  /// Appends `record` plus a newline and fsyncs.
  [[nodiscard]] Status append(std::string_view record);

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  Log(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}

  std::string path_;
  int fd_ = -1;
  std::mutex mu_;
};

}  // namespace hlsav::wal
