#include "serve/hub.h"

#include <algorithm>
#include <chrono>

#include "serve/protocol.h"

namespace hlsav::serve {

void ProgressHub::open_job(const JobView& view) {
  std::lock_guard<std::mutex> lock(mu_);
  Channel& ch = channels_[view.id];
  ch.view = view;
  ch.closed = false;
  ch.retained.clear();
  for (auto& sub : ch.subs) sub->detached = true;
  ch.subs.clear();
  cv_.notify_all();
}

void ProgressHub::push_frame(Subscription& sub, WatchFrame frame) {
  if (frame.cls != WatchFrame::Cls::kCritical && sub.buf.size() >= coalesce_after_) {
    // Back-pressure: replace the newest queued frame of the same class
    // so the buffer stops growing but the latest level is preserved.
    for (auto it = sub.buf.rbegin(); it != sub.buf.rend(); ++it) {
      if (it->cls == frame.cls) {
        *it = std::move(frame);
        ++sub.coalesced_;
        ++coalesced_total_;
        return;
      }
    }
  }
  sub.buf.push_back(std::move(frame));
}

void ProgressHub::publish(const JobView& view, std::vector<WatchFrame> frames) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = channels_.find(view.id);
  if (it == channels_.end()) return;
  Channel& ch = it->second;
  ch.view = view;
  for (WatchFrame& frame : frames) {
    ++published_total_;
    // Terminal frames outlive the job: they are what a late subscriber
    // of a finished job needs after its snapshot.
    if (frame.cls == WatchFrame::Cls::kCritical &&
        (!frame.payload.empty() || frame.line.find("\"type\":\"done\"") != std::string::npos ||
         frame.line.find("\"type\":\"rejected\"") != std::string::npos)) {
      ch.retained.push_back(frame);
    }
    for (auto& sub : ch.subs) {
      if (!sub->detached) push_frame(*sub, frame);
    }
  }
  cv_.notify_all();
}

void ProgressHub::close_job(std::uint64_t job) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = channels_.find(job);
  if (it == channels_.end()) return;
  it->second.closed = true;
  cv_.notify_all();
}

StatusOr<std::shared_ptr<ProgressHub::Subscription>> ProgressHub::subscribe(std::uint64_t job) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = channels_.find(job);
  if (it == channels_.end()) {
    return Status::invalid_argument("unknown job " + std::to_string(job));
  }
  Channel& ch = it->second;
  auto sub = std::make_shared<Subscription>();
  sub->job = job;
  WatchFrame snap;
  snap.cls = WatchFrame::Cls::kCritical;
  snap.line = encode_snapshot(ch.view);
  sub->buf.push_back(std::move(snap));
  if (ch.closed) {
    // Snapshot-then-tail for a finished job: replay the retained
    // terminal frames so `watch` still yields the report and done line.
    for (const WatchFrame& f : ch.retained) sub->buf.push_back(f);
  } else {
    ch.subs.push_back(sub);
  }
  return sub;
}

std::optional<WatchFrame> ProgressHub::next(const std::shared_ptr<Subscription>& sub,
                                            int timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (!sub->buf.empty()) {
      WatchFrame f = std::move(sub->buf.front());
      sub->buf.pop_front();
      return f;
    }
    auto it = channels_.find(sub->job);
    bool closed = it == channels_.end() || it->second.closed || sub->detached;
    if (closed) {
      sub->finished_ = true;
      return std::nullopt;
    }
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout &&
        sub->buf.empty()) {
      auto it2 = channels_.find(sub->job);
      if (it2 == channels_.end() || it2->second.closed) {
        sub->finished_ = true;
      }
      return std::nullopt;
    }
  }
}

void ProgressHub::unsubscribe(const std::shared_ptr<Subscription>& sub) {
  std::lock_guard<std::mutex> lock(mu_);
  sub->detached = true;
  auto it = channels_.find(sub->job);
  if (it == channels_.end()) return;
  auto& subs = it->second.subs;
  subs.erase(std::remove(subs.begin(), subs.end(), sub), subs.end());
}

void ProgressHub::shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, ch] : channels_) ch.closed = true;
  cv_.notify_all();
}

std::uint64_t ProgressHub::coalesced_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return coalesced_total_;
}

std::uint64_t ProgressHub::published_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return published_total_;
}

std::size_t ProgressHub::subscriber_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [id, ch] : channels_) {
    for (const auto& sub : ch.subs) {
      if (!sub->detached) ++n;
    }
  }
  return n;
}

}  // namespace hlsav::serve
