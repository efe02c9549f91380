// The hlsavd campaign service: accept loop, executors, shutdown, and
// the observability plane.
//
// One thread accepts connections on the unix socket and turns submit
// requests into spooled, queued jobs (or typed rejections when the
// bounded queue pushes back); `executors` threads pop jobs and run the
// sharded supervisor (serve/shard.h).
//
// Every transition of a job -- admitted, queued, started, progress,
// per-site heartbeats, crashes, the report, done -- is one JobEvent
// (serve/events.h) passed to emit(), the only place that touches the
// sinks: the ProgressHub fans frames out to subscribers, the
// ServiceTracer records the job-lifecycle span tree, the EventFold
// keeps counters, job views and the idempotency-key table, the
// EventLog records a line, and the JobSpool a durable state record.
// The submitting client is an ordinary hub subscriber (subscribed
// before its job is queued), served on its own thread exactly like a
// `watch` client: a slow reader can never stall a campaign.
//
// Graceful shutdown (SIGTERM or a shutdown request): the accept loop
// stops, queued-but-unstarted jobs get a typed abort, running jobs
// drain -- workers report their in-flight sites and exit, subscribers
// get whatever was durably classified plus status "drained" -- and
// every job journal is resumable by a later submission of the same
// spec.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/events.h"
#include "serve/hub.h"
#include "serve/queue.h"
#include "serve/spool.h"
#include "serve/tracer.h"
#include "support/status.h"

namespace hlsav::serve {

struct ServiceOptions {
  std::string socket_path;
  /// Jobs that may wait beyond the running ones; a full queue rejects.
  std::size_t queue_cap = 4;
  /// Concurrent jobs (each runs its own worker pool).
  unsigned executors = 1;
  /// Worker subprocesses per job when the client does not say.
  unsigned default_workers = 2;
  unsigned quarantine_cap = 3;
  /// Worker silence tolerated before the SIGKILL watchdog; 0 = off.
  double heartbeat_timeout_ms = 10'000.0;
  std::uint64_t backoff_base_ms = 25;
  std::uint64_t backoff_cap_ms = 1000;
  /// The hlsavd binary itself (workers are `hlsavd worker ...`).
  std::string worker_binary;
  /// Each job's journal is `<work_dir>/job_<id>/journal.jsonl`.
  std::string work_dir = ".";
  /// Append-only JSONL structured event log; empty = no log.
  std::string events_out;
  /// Write-ahead job spool directory; empty = `<work_dir>/spool`.
  std::string spool_dir;
  /// Crash-injection hook (test-only): SIGKILL the daemon the first
  /// time it reaches this phase (accept | spooled | shard-spawned |
  /// pre-merge | pre-done). A durable token in work_dir suppresses the
  /// second pass, so a restarted daemon sails through.
  std::string die_at;
};

class Service {
 public:
  /// Binds the socket and prepares the queue; serve() starts the loop.
  [[nodiscard]] static StatusOr<std::unique_ptr<Service>> start(ServiceOptions opt);
  ~Service();

  /// Runs accept loop + executors until shutdown_flag() turns true (a
  /// signal handler may set it) or a shutdown request arrives. Returns
  /// once every executor and watcher has drained and the socket is
  /// unlinked.
  [[nodiscard]] Status serve();

  /// The flag a SIGTERM/SIGINT handler sets: only an atomic store, so
  /// it is async-signal-safe.
  [[nodiscard]] std::atomic<bool>& shutdown_flag() { return shutdown_; }

 private:
  Service(ServiceOptions opt, int listen_fd, JobSpool spool, std::string incarnation)
      : opt_(std::move(opt)),
        listen_fd_(listen_fd),
        queue_(opt_.queue_cap),
        spool_(std::move(spool)),
        fold_(std::move(incarnation)) {}

  /// The one sink fan-out: folds `e` and derives its hub frames, spans,
  /// spool record and event-log line, all under one lock so every sink
  /// sees the same order.
  void emit(JobEvent e);
  void handle_connection(int fd);
  void handle_submit(int fd, const std::string& line);
  /// Admits `job`: registers it, subscribes its client (fd >= 0),
  /// queues it and answers "accepted". `origin` is submit | resubmit |
  /// re-adopt; a bounced push leaves the job in `bounce_state`.
  bool admit(Job job, int fd, const std::string& origin, const std::string& bounce_state);
  void reject(int fd, const Status& st, std::uint64_t job, const std::string& state = "");
  void run_job(Job job);
  /// Streams a subscription's frames to `fd` until the job ends.
  void stream(int fd, std::shared_ptr<ProgressHub::Subscription> sub, std::uint64_t job,
              bool submitter);
  /// Boot-time spool recovery: re-adopts every non-terminal spooled job
  /// (force-pushed past the queue cap -- they were already accepted
  /// once), registers every idempotency key, and expires overdue queued
  /// jobs.
  [[nodiscard]] Status recover_jobs();
  /// Durable-token crash injection: first pass through the configured
  /// phase writes a token and raises SIGKILL; the token makes the
  /// restarted daemon immune.
  void maybe_die_at(const std::string& phase);
  /// Replays a previously completed job (accept/report/done) from its
  /// persisted report to a duplicate submitter.
  void replay_done(int fd, std::uint64_t job_id);
  /// Runs `body` on a subscriber thread, first joining every one that
  /// has finished (an exited, unjoined thread keeps its stack mapped).
  void spawn_watcher(std::function<void()> body);
  [[nodiscard]] std::optional<EventFold::KeyInfo> key_info(const std::string& key);
  /// One-line status reply JSON (aggregate counts + per-priority queue
  /// depths + per-worker respawn/quarantine tallies).
  [[nodiscard]] std::string status_reply();
  /// One-line metrics snapshot JSON ({"type":"metrics",...}).
  [[nodiscard]] std::string metrics_snapshot();
  /// Compact "P:D;P:D" / "W:R/Q;W:R/Q" renderings for the flat-JSON
  /// status + metrics replies (jsonl parsing keeps keys unique, so
  /// repeated-key arrays are off the table by design). workers_field
  /// expects emit_mu_ held.
  [[nodiscard]] std::string depths_field();
  [[nodiscard]] std::string workers_field();

  ServiceOptions opt_;
  int listen_fd_ = -1;
  JobQueue queue_;
  JobSpool spool_;
  std::uint64_t started_unix_ms_ = 0;
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> drain_{false};     // handed to running supervisors
  std::atomic<bool> stopping_{false};  // subscriber threads: abort sends, exit
  std::atomic<std::uint64_t> next_job_id_{1};
  std::vector<std::thread> executors_;

  ProgressHub hub_;
  ServiceTracer tracer_;
  EventLog events_;
  /// Serializes emit() and guards fold_; recursive so admit() can hold
  /// it across a queue push and the kQueued event.
  std::recursive_mutex emit_mu_;
  EventFold fold_;

  struct Watcher {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> finished;
  };
  std::mutex watchers_mu_;
  std::vector<Watcher> watchers_;
};

}  // namespace hlsav::serve
