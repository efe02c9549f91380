// Client side of the hlsavd protocol (the `hlsavd submit/status/
// shutdown` subcommands live on top of these).
#pragma once

#include <string>

#include "serve/protocol.h"
#include "support/status.h"

namespace hlsav::serve {

struct SubmitOptions {
  /// Where the final report bytes go; empty = stdout.
  std::string out_path;
  /// Suppress progress narration on stderr.
  bool quiet = false;
  /// Extra attempts after the first on retryable failures (connect
  /// refused, typed kUnavailable rejection, connection lost
  /// mid-stream). 0 = single shot. Retrying auto-assigns an
  /// idempotency key when the spec has none, so a blind resubmit can
  /// never double-run the job.
  int retries = 0;
  /// Capped exponential backoff between attempts: the delay before
  /// attempt k is min(retry_base_ms << (k-1), retry_cap_ms), jittered
  /// to the upper half of the window so simultaneous retriers spread.
  std::uint64_t retry_base_ms = 200;
  std::uint64_t retry_cap_ms = 5000;
};

/// Submits `spec` and streams the job to completion: progress lines go
/// to stderr (unless quiet), the final report's bytes to out_path
/// (empty = stdout). Returns the process exit code:
///   0 = done ok;  1 = job or transport error;  6 = drained (daemon
///   shut down mid-job; journals are resumable);  7 = rejected by
///   back-pressure or validation (typed, resubmit later).
[[nodiscard]] int submit_job(const std::string& socket_path, CampaignSpec spec,
                             const SubmitOptions& opt);

/// Single-shot convenience overload (the historic signature).
[[nodiscard]] int submit_job(const std::string& socket_path, const CampaignSpec& spec,
                             const std::string& out_path, bool quiet);

/// Daemon status. The first line keeps the historic aggregate form
/// ("queued=N running=N completed=N rejected=N"); the daemon's
/// incarnation and per-worker respawn/quarantine tallies follow as
/// indented lines.
[[nodiscard]] StatusOr<std::string> query_status(const std::string& socket_path);

/// Asks the daemon to shut down gracefully.
[[nodiscard]] Status request_shutdown(const std::string& socket_path);

// ----------------------------------------------------- observability --

struct WatchOptions {
  /// Keep retrying an unknown job id for this long (a watcher racing
  /// its own submit); 0 = fail immediately.
  int wait_ms = 0;
  /// Test hook: once the daemon has accepted the watch (its snapshot
  /// frame), sleep this long before reading on -- a deliberately slow
  /// subscriber of a live job, for back-pressure coverage.
  int stall_reads_ms = 0;
  /// Where the job's final report bytes go; empty = stdout.
  std::string out_path;
  /// Suppress per-frame stderr narration.
  bool quiet = false;
};

/// Attaches to a running (or finished) job and streams its frames:
/// snapshot, state transitions, progress, per-site heartbeats, worker
/// crashes, the final report, done. Exit codes match submit_job:
///   0 done ok; 1 error/unknown job; 6 job drained; 7 rejected.
[[nodiscard]] int watch_job(const std::string& socket_path, std::uint64_t job,
                            const WatchOptions& opt);

/// One-shot metrics snapshot: the daemon's raw one-line JSON
/// ({"type":"metrics",...,"counters":{...},"histograms":{...}}).
[[nodiscard]] StatusOr<std::string> query_metrics(const std::string& socket_path);

/// Chrome trace-event JSON of one job's span tree (job 0 = every job).
[[nodiscard]] StatusOr<std::string> fetch_trace(const std::string& socket_path,
                                                std::uint64_t job);

}  // namespace hlsav::serve
