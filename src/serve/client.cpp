#include "serve/client.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <random>
#include <thread>

#include "support/jsonl.h"
#include "support/socket.h"
#include "support/str.h"

namespace hlsav::serve {

namespace {

/// RAII socket close for the three entry points below.
struct FdCloser {
  int fd;
  ~FdCloser() { ::close(fd); }
};

/// Reads one job's frame stream to its "done" frame: the loop submit
/// and watch share. `retryable` turns true for failures a keyed
/// resubmit can safely repeat: a connection lost mid-stream (daemon
/// killed; the spool has the job) and a typed kUnavailable rejection
/// (back-pressure, drain). `unknown` turns true (instead of a printed
/// error) when the daemon does not know the watched job id yet. A
/// positive `stall_ms` stops reading for that long once the daemon has
/// accepted a watch (its snapshot frame): a deliberately slow
/// subscriber of a live job, which the daemon's coalescing buffers
/// (and the campaign's immunity to them) exist for.
int stream_frames(int fd, const std::string& out_path, bool quiet, int stall_ms, bool& retryable,
                  bool& unknown) {
  LineReader reader(fd);
  std::string report;
  bool have_report = false;
  for (;;) {
    StatusOr<std::string> line = reader.read_line();
    if (!line.ok()) {
      std::cerr << "hlsavd: connection lost: " << line.status().to_string() << "\n";
      retryable = true;
      return 1;
    }
    std::string type, text;
    std::uint64_t job = 0, done = 0, total = 0, site = 0, worker = 0;
    if (!jsonl::parse_string(*line, "type", type)) continue;
    (void)jsonl::parse_u64(*line, "job", job);
    (void)jsonl::parse_u64(*line, "done", done);
    (void)jsonl::parse_u64(*line, "total", total);
    (void)jsonl::parse_u64(*line, "site", site);
    (void)jsonl::parse_u64(*line, "worker", worker);
    if (type == "rejected") {
      std::string code, message;
      (void)jsonl::parse_string(*line, "code", code);
      (void)jsonl::parse_string(*line, "message", message);
      if (message.rfind("unknown job", 0) == 0) {
        unknown = true;
        return 1;
      }
      std::cerr << "hlsavd: rejected (" << code << "): " << message << "\n";
      retryable = code == "unavailable";
      return 7;
    }
    if (type == "snapshot" && stall_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
    }
    if (type == "report") {
      std::uint64_t bytes = 0;
      (void)jsonl::parse_u64(*line, "bytes", bytes);
      StatusOr<std::string> payload = reader.read_bytes(bytes);
      if (!payload.ok()) {
        std::cerr << "hlsavd: truncated report: " << payload.status().to_string() << "\n";
        return 1;
      }
      report = std::move(*payload);
      have_report = true;
    } else if (type == "done") {
      std::string status, message;
      (void)jsonl::parse_string(*line, "status", status);
      (void)jsonl::parse_string(*line, "message", message);
      if (status == "error") {
        std::cerr << "hlsavd: job failed: " << message << "\n";
        return 1;
      }
      if (have_report) {
        if (out_path.empty()) {
          std::cout << report;
        } else {
          std::ofstream os(out_path, std::ios::binary);
          os << report;
          if (!os) {
            std::cerr << "hlsavd: cannot write '" << out_path << "'\n";
            return 1;
          }
        }
      }
      if (status == "drained") {
        std::cerr << "hlsavd: daemon drained mid-job; partial result written, the job "
                     "journal is resumable\n";
        return 6;
      }
      return 0;
    } else if (quiet) {
      continue;
    } else if (type == "snapshot") {
      std::string design;
      (void)jsonl::parse_string(*line, "state", text);
      (void)jsonl::parse_string(*line, "design", design);
      std::cerr << "hlsavd: job " << job << " (" << design << "): " << text << ", " << done
                << "/" << total << " sites\n";
    } else if (type == "state") {
      (void)jsonl::parse_string(*line, "state", text);
      std::cerr << "hlsavd: job " << job << " -> " << text << "\n";
    } else if (type == "progress") {
      std::cerr << "hlsavd: " << done << "/" << total << " sites\n";
    } else if (type == "site-started" || type == "site-done") {
      (void)jsonl::parse_string(*line, "outcome", text);
      std::cerr << "hlsavd: w" << worker << " s" << site
                << (type == "site-started" ? " started" : " " + text) << "\n";
    } else if (type == "worker-crashed") {
      (void)jsonl::parse_string(*line, "detail", text);
      std::cerr << "hlsavd: worker crashed on site s" << site << " (" << text
                << "); contained, respawning\n";
    } else if (type == "quarantined") {
      std::cerr << "hlsavd: site s" << site << " quarantined (worker-crashed)\n";
    }
  }
}

/// One connection: sends `request`, then streams the job's frames
/// (stalling `stall_ms` after a watch's snapshot).
int request_stream(const std::string& socket_path, const std::string& request,
                   const std::string& out_path, bool quiet, int stall_ms, bool& retryable,
                   bool& unknown) {
  retryable = false;
  unknown = false;
  StatusOr<int> fd = unix_connect(socket_path);
  if (!fd.ok()) {
    std::cerr << "hlsavd: " << fd.status().to_string() << "\n";
    retryable = true;
    return 1;
  }
  FdCloser closer{*fd};
  Status sent = send_line(*fd, request);
  if (!sent.ok()) {
    std::cerr << "hlsavd: " << sent.to_string() << "\n";
    retryable = true;
    return 1;
  }
  return stream_frames(*fd, out_path, quiet, stall_ms, retryable, unknown);
}

/// A process-unique idempotency key for auto-keyed retries.
std::string generate_key() {
  std::random_device rd;
  std::uint64_t a = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  std::uint64_t now = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  char buf[64];
  std::snprintf(buf, sizeof buf, "k%016llx%08lx%llx", static_cast<unsigned long long>(a),
                static_cast<unsigned long>(::getpid()), static_cast<unsigned long long>(now));
  return buf;
}

}  // namespace

int submit_job(const std::string& socket_path, CampaignSpec spec, const SubmitOptions& opt) {
  // Retrying without a key could double-run the job; assign one so
  // every attempt names the same spooled job.
  if (opt.retries > 0 && spec.key.empty()) spec.key = generate_key();
  std::mt19937_64 rng(std::random_device{}() ^ static_cast<std::uint64_t>(::getpid()));
  for (int attempt = 0;; ++attempt) {
    bool retryable = false, unknown = false;
    int rc = request_stream(socket_path, encode_submit(spec), opt.out_path, opt.quiet,
                            /*stall_ms=*/0, retryable, unknown);
    if (!retryable || attempt >= opt.retries) return rc;
    std::uint64_t base = opt.retry_base_ms == 0 ? 1 : opt.retry_base_ms;
    std::uint64_t delay = attempt < 63 ? base << attempt : opt.retry_cap_ms;
    if (delay > opt.retry_cap_ms || delay < base) delay = opt.retry_cap_ms;
    // Jitter into the upper half of the window: simultaneous retriers
    // spread instead of stampeding the restarted daemon together.
    std::uint64_t jittered = delay / 2 + rng() % (delay / 2 + 1);
    if (!opt.quiet) {
      std::cerr << "hlsavd: retrying in " << jittered << "ms (attempt " << (attempt + 2) << "/"
                << (opt.retries + 1) << ", key " << spec.key << ")\n";
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(jittered));
  }
}

int submit_job(const std::string& socket_path, const CampaignSpec& spec,
               const std::string& out_path, bool quiet) {
  SubmitOptions opt;
  opt.out_path = out_path;
  opt.quiet = quiet;
  return submit_job(socket_path, spec, opt);
}

StatusOr<std::string> query_status(const std::string& socket_path) {
  StatusOr<int> fd = unix_connect(socket_path);
  HLSAV_RETURN_IF_ERROR(fd.status());
  FdCloser closer{*fd};
  HLSAV_RETURN_IF_ERROR(send_line(*fd, "{\"type\":\"status\"}"));
  LineReader reader(*fd);
  StatusOr<std::string> line = reader.read_line(/*timeout_ms=*/5000);
  HLSAV_RETURN_IF_ERROR(line.status());
  std::uint64_t queued = 0, running = 0, completed = 0, rejected = 0;
  (void)jsonl::parse_u64(*line, "queued", queued);
  (void)jsonl::parse_u64(*line, "running", running);
  (void)jsonl::parse_u64(*line, "completed", completed);
  (void)jsonl::parse_u64(*line, "rejected", rejected);
  std::string out = "queued=" + std::to_string(queued) + " running=" + std::to_string(running) +
                    " completed=" + std::to_string(completed) +
                    " rejected=" + std::to_string(rejected);
  // Which daemon is this, how long has it been up, and did it recover
  // spooled jobs at boot? The restart story in one line.
  std::string incarnation;
  if (jsonl::parse_string(*line, "incarnation", incarnation) && !incarnation.empty()) {
    double uptime_ms = 0.0;
    std::uint64_t recovered = 0;
    (void)jsonl::parse_double(*line, "uptime_ms", uptime_ms);
    (void)jsonl::parse_u64(*line, "recovered", recovered);
    out += "\n  incarnation " + incarnation + ": up " +
           std::to_string(static_cast<std::uint64_t>(uptime_ms)) + "ms, recovered " +
           std::to_string(recovered) + " job(s) at boot";
  }
  // The compact "W:R/Q;W:R/Q" wire field -> one line per worker.
  std::string workers;
  (void)jsonl::parse_string(*line, "workers", workers);
  for (const std::string& part : split(workers, ';')) {
    std::size_t colon = part.find(':');
    std::size_t slash = part.find('/', colon);
    if (colon == std::string::npos || slash == std::string::npos) continue;
    out += "\n  worker " + part.substr(0, colon) + ": respawns=" +
           part.substr(colon + 1, slash - colon - 1) + " quarantines=" + part.substr(slash + 1);
  }
  return out;
}

int watch_job(const std::string& socket_path, std::uint64_t job, const WatchOptions& opt) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(opt.wait_ms);
  for (;;) {
    bool retryable = false, unknown = false;
    int rc = request_stream(socket_path, encode_watch(job), opt.out_path, opt.quiet,
                            opt.stall_reads_ms, retryable, unknown);
    if (!unknown) return rc;
    if (std::chrono::steady_clock::now() >= deadline) {
      std::cerr << "hlsavd: unknown job " << job << "\n";
      return 1;
    }
    // Short against a job's run, so a watcher that loses the race with
    // its own submit by one poll still subscribes while the job runs.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

StatusOr<std::string> query_metrics(const std::string& socket_path) {
  StatusOr<int> fd = unix_connect(socket_path);
  HLSAV_RETURN_IF_ERROR(fd.status());
  FdCloser closer{*fd};
  HLSAV_RETURN_IF_ERROR(send_line(*fd, "{\"type\":\"metrics\"}"));
  LineReader reader(*fd);
  StatusOr<std::string> line = reader.read_line(/*timeout_ms=*/5000);
  HLSAV_RETURN_IF_ERROR(line.status());
  return *line;
}

StatusOr<std::string> fetch_trace(const std::string& socket_path, std::uint64_t job) {
  StatusOr<int> fd = unix_connect(socket_path);
  HLSAV_RETURN_IF_ERROR(fd.status());
  FdCloser closer{*fd};
  HLSAV_RETURN_IF_ERROR(
      send_line(*fd, "{\"type\":\"trace\",\"job\":" + std::to_string(job) + "}"));
  LineReader reader(*fd);
  StatusOr<std::string> line = reader.read_line(/*timeout_ms=*/5000);
  HLSAV_RETURN_IF_ERROR(line.status());
  std::string type;
  (void)jsonl::parse_string(*line, "type", type);
  if (type == "rejected") {
    std::string message;
    (void)jsonl::parse_string(*line, "message", message);
    return Status::invalid_argument(message.empty() ? "trace request rejected" : message);
  }
  std::uint64_t bytes = 0;
  (void)jsonl::parse_u64(*line, "bytes", bytes);
  return reader.read_bytes(bytes, /*timeout_ms=*/10000);
}

Status request_shutdown(const std::string& socket_path) {
  StatusOr<int> fd = unix_connect(socket_path);
  HLSAV_RETURN_IF_ERROR(fd.status());
  FdCloser closer{*fd};
  HLSAV_RETURN_IF_ERROR(send_line(*fd, "{\"type\":\"shutdown\"}"));
  LineReader reader(*fd);
  StatusOr<std::string> line = reader.read_line(/*timeout_ms=*/5000);
  HLSAV_RETURN_IF_ERROR(line.status());
  return Status::ok_status();
}

}  // namespace hlsav::serve
