// Bounded FIFO job queue with typed back-pressure.
//
// hlsavd accepts campaign jobs faster than it can run them; the queue
// is where overload becomes an *answer* instead of an outage. A full
// queue rejects the push with kUnavailable (the client gets a typed
// "rejected" reply and exit code 7, never a hang or a dropped socket),
// and jobs run in the order they were queued.
#pragma once

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

#include "serve/protocol.h"
#include "support/status.h"

namespace hlsav::serve {

/// One accepted campaign submission. Its submitting client, if any,
/// follows it as a ProgressHub subscriber, not through the queue.
struct Job {
  std::uint64_t id = 0;
  CampaignSpec spec;
};

/// Thread-safe bounded FIFO. push() never blocks -- a full or closed
/// queue is a Status, which is the whole point.
class JobQueue {
 public:
  explicit JobQueue(std::size_t capacity) : capacity_(capacity) {}

  /// kUnavailable when full ("queue full (cap N)") or closed ("shutting
  /// down") -- the service forwards the message verbatim as the typed
  /// rejection. With `force`, the capacity check is skipped (never the
  /// closed check): boot-time recovery re-adopts every spooled job --
  /// they were already accepted once, so the cap cannot bounce them.
  [[nodiscard]] Status push(Job job, bool force = false);

  /// Blocks until a job is available and takes the oldest. nullopt once
  /// the queue is closed (close() drains pending jobs, so there is
  /// nothing left to hand out).
  [[nodiscard]] std::optional<Job> pop();

  /// Closes the queue: every blocked pop() wakes and returns nullopt,
  /// every later push() is rejected. Returns the jobs still queued, in
  /// submission order, so the service can send each waiting client a
  /// typed abort.
  [[nodiscard]] std::deque<Job> close();

 private:
  const std::size_t capacity_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> jobs_;
  bool closed_ = false;
};

}  // namespace hlsav::serve
