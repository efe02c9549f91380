// hlsavd wire protocol: one flat JSON object per line.
//
// A client connects to the daemon's unix socket, sends exactly one
// request line, and reads reply lines until "done" (submit) or a
// single reply (status/shutdown). The only non-line payload is the
// final report: a sized header line ({"type":"report","bytes":N})
// followed by N raw bytes, so report text never needs escaping and the
// byte-identity contract survives the wire untouched.
//
//   client -> daemon:
//     {"type":"submit","design":...,"feeds":...,...}
//     {"type":"status"}
//     {"type":"shutdown"}
//   daemon -> client (submit):
//     {"type":"accepted","job":N}
//   | {"type":"rejected","code":"unavailable","message":...}
//     then the job's watch stream (below), which ends in
//     {"type":"report","job":N,"bytes":N} + N raw bytes
//     {"type":"done","job":N,"status":"ok"|"drained"}
//     or, for a job aborted before it ran, in a "rejected" line
//
// Workers speak the same dialect. The supervisor writes one site id per
// line to a worker's stdin (EOF: no more sites); the worker answers
// with {"type":"starting","site":N} before the site runs and
// {"type":"site",...} -- the site's journal record (sim::journal_line)
// -- once it is classified. Both are heartbeats. The supervisor, the
// only journal writer, journals each result before the next id.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/status.h"

namespace hlsav::serve {

/// Everything a campaign job needs, as submitted over the wire. The
/// design travels as a *path* (daemon and client share a filesystem --
/// it is a unix socket) and feeds as the CLI's spec string, so the
/// daemon compiles exactly what hlsavc would.
struct CampaignSpec {
  std::string design_path;
  /// "in=1,2,3;other=4,5" -- same values --feed takes, ';'-joined.
  std::string feeds;
  /// Assertion synthesis mode: ndebug | unoptimized | optimized.
  std::string assertions = "optimized";
  std::uint64_t seed = 1;
  std::uint64_t max_faults = 0;
  std::uint64_t max_cycles = 0;
  double site_wall_ms = 0.0;
  /// Worker subprocesses to run the sites on; 0 = service
  /// default.
  unsigned workers = 0;
  /// Higher runs first; equal priorities stay FIFO.
  int priority = 0;
  /// Test-only fault schedule: sites whose worker dies by SIGKILL the
  /// moment the site starts (once per site, see --crash-limit).
  std::vector<std::uint32_t> crash_at;
  /// How many times each crash_at site kills its worker before running
  /// normally; >= the quarantine cap exercises quarantine.
  std::uint32_t crash_limit = 1;
  /// Test-only: sites whose worker stalls forever (heartbeat watchdog
  /// fodder), once per site.
  std::vector<std::uint32_t> stall_at;
  /// Idempotency key. Empty = daemon assigns one. Two submits with the
  /// same key are the same job: the daemon spools it once and replays
  /// the original job id (and result) to any resubmit, so a client may
  /// blindly retry across daemon restarts.
  std::string key;
  /// Per-job TTL in milliseconds (0 = none). A job still *queued* when
  /// its deadline passes ends in the terminal "deadline-expired" state
  /// -- reported, never silently dropped.
  std::uint64_t deadline_ms = 0;
};

/// Serializes `spec` as the submit request line (no trailing newline).
[[nodiscard]] std::string encode_submit(const CampaignSpec& spec);

/// Parses a submit request line. kInvalidArgument when the design path
/// is missing or a field is malformed.
[[nodiscard]] StatusOr<CampaignSpec> decode_submit(const std::string& line);

/// Parses the CLI/wire feed spec ("in=1,2,3;other=4") into the map the
/// simulator feeds from. Empty spec = no feeds.
[[nodiscard]] StatusOr<std::map<std::string, std::vector<std::uint64_t>>> parse_feed_spec(
    const std::string& spec);

// --------------------------------------------------- daemon -> client --

/// `duplicate` marks a resubmit that attached to an already-spooled job
/// instead of creating a new one (idempotency-key hit).
[[nodiscard]] std::string encode_accepted(std::uint64_t job, bool duplicate = false);
[[nodiscard]] std::string encode_rejected(const Status& status);
[[nodiscard]] std::string encode_progress(std::uint64_t job, std::uint64_t done,
                                          std::uint64_t total);
[[nodiscard]] std::string encode_worker_crashed(std::uint64_t job, std::uint32_t site, int worker,
                                                const std::string& detail);
[[nodiscard]] std::string encode_quarantined(std::uint64_t job, std::uint32_t site);
[[nodiscard]] std::string encode_report_header(std::uint64_t job, std::size_t bytes);
/// `status` is "ok", "drained" (graceful degradation kept a partial
/// result) or "error" (`message` says why).
[[nodiscard]] std::string encode_done(std::uint64_t job, const std::string& status,
                                      const std::string& message = "");

// ----------------------------------------------- watch (observability) --
//
// A watcher sends {"type":"watch","job":N} and receives snapshot-then-
// tail: one snapshot line with the job's current state, then the frame
// stream (state transitions, progress, per-site heartbeats, crashes,
// the sized report, done). Under back-pressure progress/site frames
// coalesce (latest wins); critical frames never do.

struct JobView;  // serve/hub.h

[[nodiscard]] std::string encode_watch(std::uint64_t job);
[[nodiscard]] std::string encode_snapshot(const JobView& view);
/// `state` is queued | running | merging | done | drained | error |
/// aborted -- the job-lifecycle transitions watchers never lose.
[[nodiscard]] std::string encode_state(std::uint64_t job, const std::string& state);
[[nodiscard]] std::string encode_site_started(std::uint64_t job, std::uint32_t site, int worker);
[[nodiscard]] std::string encode_site_done(std::uint64_t job, std::uint32_t site, int worker,
                                           const std::string& outcome);

// ------------------------------------------------ worker -> supervisor --

/// Worker exit code: drained by SIGTERM after reporting its in-flight
/// site.
inline constexpr int kWorkerDrainedExit = 21;

[[nodiscard]] std::string encode_worker_starting(std::uint32_t site);
/// `record` is the site's journal line ({"site":N,...}).
[[nodiscard]] std::string encode_worker_site(const std::string& record);

}  // namespace hlsav::serve
