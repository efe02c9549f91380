// ProgressHub: fan-out of per-job progress frames to N watchers.
//
// Every accepted job gets a channel. Service::emit *publishes* frames
// (progress, site heartbeats, crashes, state transitions, the final
// report, done) into the channel; any number of subscriber threads --
// the submitting client's among them -- drain their own bounded
// buffer.
// The contract that makes watchers safe to attach to a production
// campaign:
//
//  * publish() never blocks and never does I/O -- a watcher that stops
//    reading can never stall the campaign (sends happen on the watcher
//    thread, against its own buffer).
//  * Per-subscriber buffers are bounded: once a buffer holds
//    `coalesce_after` frames, a new kProgress/kSite frame *replaces*
//    the newest queued frame of the same class instead of growing the
//    buffer (progress is a level, not an edge -- the latest value is
//    the only one that matters).
//  * kCritical frames (state transitions, worker-crashed, quarantined,
//    the report, done) always append and are never coalesced: their
//    count per job is bounded, and a slow watcher still sees every one
//    of them byte-identically.
//  * Late subscribers get snapshot-then-tail: the channel's current
//    JobView as a snapshot frame, then -- if the job already finished --
//    the retained terminal frames (report + done), then whatever is
//    published next.
#pragma once

#include <cstdint>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "support/status.h"

namespace hlsav::serve {

/// What a late subscriber learns about a job the moment it attaches.
struct JobView {
  std::uint64_t id = 0;
  std::string design;
  /// queued | running | merging | done | drained | error | aborted.
  std::string state = "queued";
  std::uint64_t done = 0;
  std::uint64_t total = 0;
  unsigned respawns = 0;
  std::uint64_t quarantined = 0;
};

/// One frame a watcher receives: a protocol line, plus raw payload
/// bytes for the sized report frame (sent verbatim after the line).
struct WatchFrame {
  enum class Cls : std::uint8_t {
    kCritical,  // state/crash/quarantine/report/done: never coalesced
    kProgress,  // done/total tick: latest value wins under back-pressure
    kSite,      // per-site start/finish heartbeat: same coalescing rule
  };
  Cls cls = Cls::kCritical;
  std::string line;
  std::string payload;  // non-empty only for the report frame
};

class ProgressHub {
 public:
  /// Buffer size at which kProgress/kSite frames start coalescing.
  explicit ProgressHub(std::size_t coalesce_after = 64)
      : coalesce_after_(coalesce_after) {}

  /// Registers a job the moment it is admitted, or re-arms a finished
  /// job's channel for another run (idempotent resubmit): fresh view,
  /// closed flag and retained terminal frames cleared, stale
  /// subscribers detached.
  void open_job(const JobView& view);

  /// Replaces the job's snapshot view and fans `frames` out to every
  /// subscriber, under one lock so a late subscriber's snapshot never
  /// disagrees with the frames that follow it. Terminal frames (report,
  /// done, rejected) are retained for late subscribers. Never blocks on
  /// subscriber I/O (there is none here by construction); unknown jobs
  /// are ignored.
  void publish(const JobView& view, std::vector<WatchFrame> frames);
  /// Marks the job finished: subscribers drain their buffers and then
  /// see end-of-stream; later subscribers get snapshot + retained
  /// terminal frames. The channel itself is kept until the hub dies so
  /// `watch` on a completed job keeps working.
  void close_job(std::uint64_t job);

  class Subscription;
  /// Attaches to a job; kInvalidArgument for ids never opened.
  [[nodiscard]] StatusOr<std::shared_ptr<Subscription>> subscribe(std::uint64_t job);
  /// Next frame for `sub`, waiting up to `timeout_ms`. nullopt +
  /// finished()==true: the stream ended. nullopt + finished()==false:
  /// timeout, poll your stop flag and call again.
  [[nodiscard]] std::optional<WatchFrame> next(const std::shared_ptr<Subscription>& sub,
                                               int timeout_ms);
  void unsubscribe(const std::shared_ptr<Subscription>& sub);

  /// Daemon shutdown: closes every channel so blocked next() calls wake
  /// and watcher threads can exit.
  void shutdown();

  /// Total frames replaced by coalescing across all subscribers so far.
  [[nodiscard]] std::uint64_t coalesced_total() const;
  [[nodiscard]] std::uint64_t published_total() const;
  [[nodiscard]] std::size_t subscriber_count() const;

  class Subscription {
   public:
    [[nodiscard]] bool finished() const { return finished_; }
    /// Frames this subscriber lost to coalescing (each replacement is
    /// one overwritten frame).
    [[nodiscard]] std::uint64_t coalesced() const { return coalesced_; }

   private:
    friend class ProgressHub;
    std::uint64_t job = 0;
    std::deque<WatchFrame> buf;
    std::uint64_t coalesced_ = 0;
    bool detached = false;
    bool finished_ = false;  // channel closed and buffer drained
  };

 private:
  struct Channel {
    JobView view;
    bool closed = false;
    std::vector<std::shared_ptr<Subscription>> subs;
    /// Terminal critical frames replayed to late subscribers.
    std::vector<WatchFrame> retained;
  };

  void push_frame(Subscription& sub, WatchFrame frame);

  const std::size_t coalesce_after_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::uint64_t, Channel> channels_;
  std::uint64_t coalesced_total_ = 0;
  std::uint64_t published_total_ = 0;
};

}  // namespace hlsav::serve
