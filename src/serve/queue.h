// Bounded priority job queue with typed back-pressure.
//
// hlsavd accepts campaign jobs faster than it can run them; the queue
// is where overload becomes an *answer* instead of an outage. A full
// queue rejects the push with kUnavailable (the client gets a typed
// "rejected" reply and exit code, never a hang or a dropped socket),
// higher-priority jobs run first, and equal priorities stay FIFO.
#pragma once

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "serve/protocol.h"
#include "support/status.h"

namespace hlsav::serve {

/// One accepted campaign submission. Its submitting client, if any,
/// follows it as a ProgressHub subscriber, not through the queue.
struct Job {
  std::uint64_t id = 0;
  CampaignSpec spec;
  /// Queue-assigned arrival number; ties within a priority stay FIFO.
  std::uint64_t seq = 0;
  /// Absolute wall-clock deadline (unix ms); 0 = none. Checked when
  /// the job is dequeued: expired jobs end as "deadline-expired".
  std::uint64_t deadline_unix_ms = 0;
};

/// Thread-safe bounded priority queue. push() never blocks -- a full or
/// closed queue is a Status, which is the whole point.
class JobQueue {
 public:
  explicit JobQueue(std::size_t capacity) : capacity_(capacity) {}

  /// kUnavailable when full ("queue full (cap N)") or closed ("shutting
  /// down") -- the service forwards the message verbatim as the typed
  /// rejection. With `force`, the capacity check is skipped (never the
  /// closed check): boot-time recovery re-adopts every spooled job --
  /// they were already accepted once, so the cap cannot bounce them.
  [[nodiscard]] Status push(Job job, bool force = false);

  /// Blocks until a job is available; highest priority first, FIFO
  /// within a priority. nullopt once the queue is closed (close()
  /// drains pending jobs, so there is nothing left to hand out).
  [[nodiscard]] std::optional<Job> pop();

  /// Closes the queue: every blocked pop() wakes and returns nullopt,
  /// every later push() is rejected. Returns the jobs still queued so
  /// the service can send each waiting client a typed abort.
  [[nodiscard]] std::vector<Job> close();

  [[nodiscard]] std::size_t size() const;

  /// Waiting jobs per priority, highest priority first (observability:
  /// `hlsavd status` and the metrics snapshot report queue shape, not
  /// just a total).
  [[nodiscard]] std::vector<std::pair<int, std::size_t>> depth_by_priority() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Job> jobs_;  // unsorted; pop() selects best
  std::uint64_t next_seq_ = 0;
  bool closed_ = false;
};

}  // namespace hlsav::serve
