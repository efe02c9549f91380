// The hlsavd event stream: one typed JobEvent per transition, the pure
// fold that derives counters, job views and the idempotency-key table
// from it, and the append-only event log that records it.
//
// Every job transition (and the daemon's own start, recovery and stop)
// is one JobEvent handed to Service::emit, which derives each sink from
// it -- hub frames, tracer spans, counters, the event-log line, the
// spool record and the key table -- so they agree by construction,
// much as the paper's checkers share one notification word (§3.3)
// instead of each owning a path to the CPU. The fold below is the
// I/O-free part of that derivation.
//
// The event log is a support/wal log of flat JSON lines, each stamped
// with a monotonic sequence number and milliseconds since the daemon
// started:
//
//   {"seq":12,"ts_ms":8410.2,"event":"job-completed","job":3,
//    "status":"done","done":24,"total":24}
//
// A job-completed line also carries "engine_note" when one of the
// job's sites interpreted: the first such site's reason.
//
// Each line is fsync'd, and opening the log cuts a line torn by a
// crash before the next incarnation appends; its sequence restarts,
// so (seq, ts_ms) pairs identify daemon incarnations.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "metrics/metrics.h"
#include "serve/hub.h"
#include "serve/protocol.h"
#include "support/status.h"
#include "support/wal.h"

namespace hlsav::serve {

struct JobEvent {
  enum class Kind : std::uint8_t {
    // ---- daemon (job 0) ----
    kDaemonStart,  // detail: socket path
    kRecovered,    // boot spool scan done; done: quarantined entries, total: torn tails
    kDaemonStop,
    // ---- boot-time spool recovery ----
    kRestored,  // a spooled entry's key re-enters the key table; key, detail: submit line,
                // state: its spooled state
    kSettled,   // a spooled job ends at boot without running; state, detail
    // ---- admission ----
    kAdmitted,   // before the queue push; spec, detail: submit | resubmit | re-adopt
    kQueued,     // the push succeeded; detail as for kAdmitted
    kRejected,   // detail: reason; a non-empty state is the job's durable state after it
    kDuplicate,  // a resubmitted key; key, state: the job's state
    kAborted,    // dequeued by shutdown before it ran; detail: reason
    // ---- a run (the supervisor emits kPhaseBegin..kQuarantined) ----
    kStarted,
    kPhaseBegin,      // detail: compile | jit | shard | merge
    kPhaseEnd,        // detail: the phase
    kProgress,        // done / total
    kWorkerAssigned,  // worker starts on the job; detail: spawned | reused (was parked)
    kSiteStarted,     // site on worker
    kSiteDone,        // site on worker; detail: outcome name; compiled
    kWorkerCrashed,   // site: the blamed in-flight site; worker; detail: exit description
    kQuarantined,     // site hit the crash cap and is classified worker-crashed
    kReport,          // payload: the rendered report
    kFinished,        // state: done | drained | error; detail: message; total: journal
                      // bytes; engine_note
    // ---- subscribers ----
    kWatchSubscribed,
    kWatchFrame,   // one frame about to be sent
    kWatchClosed,  // done: frames sent, total: frames coalesced
  };

  Kind kind = Kind::kProgress;
  std::uint64_t job = 0;
  std::uint64_t done = 0;
  std::uint64_t total = 0;
  std::uint32_t site = 0;
  int worker = -1;
  std::string state{};
  std::string detail{};
  std::string key{};
  std::string payload{};
  /// kAdmitted: the job's spec.
  const CampaignSpec* spec = nullptr;
  /// kWatch*: the submitting client's own subscription, which is not a
  /// watcher and is never counted or logged as one.
  bool submitter = false;
  /// kSiteDone: the site ran on the compiled engine.
  bool compiled = false;
  /// kFinished: why the job's first interpreted site interpreted.
  std::string engine_note{};
};

/// Append-only JSONL flight recorder over a wal::Log.
class EventLog {
 public:
  /// Opens `path` for appending (creating it), cutting a torn last line
  /// first; kIoError when it cannot be opened.
  [[nodiscard]] Status open(const std::string& path);
  [[nodiscard]] bool is_open() const { return log_ != nullptr; }

  /// One event field: string values are JSON-escaped, raw values
  /// (numbers, pre-encoded fragments) are emitted verbatim.
  struct Field {
    std::string key;
    std::string value;
    bool raw = false;

    static Field str(std::string k, std::string v) { return {std::move(k), std::move(v), false}; }
    static Field num(std::string k, std::uint64_t v) {
      return {std::move(k), std::to_string(v), true};
    }
  };

  /// Appends {"seq":N,"ts_ms":T,"event":name,...fields} and fsyncs it.
  /// A closed log ignores the record (the daemon runs fine without one).
  void record(std::uint64_t ts_us, const std::string& name, const std::vector<Field>& fields);

  /// Events recorded (== the last line's seq) this incarnation.
  [[nodiscard]] std::uint64_t sequence() const;

  /// Closes; further record() calls are ignored.
  void close();

 private:
  mutable std::mutex mu_;
  std::unique_ptr<wal::Log> log_;
  std::uint64_t seq_ = 0;
};

/// The daemon state derived from its event stream: counters, every
/// job's JobView and the idempotency-key table. Pure -- no I/O, no
/// locks; Service::emit serializes calls.
struct EventFold {
  explicit EventFold(std::string incarnation = "");

  /// The event-log line an event implies; an empty name means none.
  struct LogLine {
    std::string name;
    std::vector<EventLog::Field> fields;
  };
  /// Folds `e`, observed at `now_us`, and returns its log line.
  LogLine apply(const JobEvent& e, std::uint64_t now_us);

  /// nullptr for jobs never admitted by this incarnation.
  [[nodiscard]] const JobView* view(std::uint64_t job) const;

  struct KeyInfo {
    std::uint64_t job = 0;
    /// Canonical submit line, byte-compared against duplicate submits.
    std::string submit_line;
    /// Mirrors the job's spool state.
    std::string state;
  };
  [[nodiscard]] std::optional<KeyInfo> key_info(const std::string& key) const;

  std::string incarnation;
  /// Jobs queued / running now, and finished / rejected / re-adopted so far.
  std::uint64_t queued = 0, running = 0, completed = 0, rejected = 0, recovered = 0;
  /// Per-worker-index (respawns, quarantines) across all jobs.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> worker_stats;
  metrics::MetricsRegistry registry;
  struct {
    metrics::Counter* jobs_submitted;
    metrics::Counter* jobs_rejected;
    metrics::Counter* jobs_completed;
    metrics::Counter* jobs_drained;
    metrics::Counter* jobs_failed;
    metrics::Counter* worker_respawns;
    metrics::Counter* workers_spawned;
    metrics::Counter* workers_reused;
    metrics::Counter* sites_quarantined;
    metrics::Counter* sites_done;
    metrics::Counter* sites_compiled;
    metrics::Counter* journal_bytes;
    metrics::Counter* watch_subscribers;
    metrics::Counter* watch_frames_sent;
    metrics::Counter* watch_frames_coalesced;
    metrics::Counter* jobs_recovered;
    metrics::Counter* jobs_duplicate;
    metrics::Counter* spool_quarantined;
    metrics::Histogram* job_wall_ms;
  } counters{};

 private:
  struct JobRecord {
    JobView view;
    std::string key;
    std::optional<std::uint64_t> run_start_us;
  };
  std::map<std::uint64_t, JobRecord> jobs_;
  std::map<std::string, KeyInfo> keys_;
};

}  // namespace hlsav::serve
