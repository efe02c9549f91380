#include "serve/queue.h"

namespace hlsav::serve {

Status JobQueue::push(Job job, bool force) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return Status::unavailable("shutting down");
  if (!force && jobs_.size() >= capacity_) {
    return Status::unavailable("queue full (cap " + std::to_string(capacity_) + ")");
  }
  jobs_.push_back(std::move(job));
  cv_.notify_one();
  return Status::ok_status();
}

std::optional<Job> JobQueue::pop() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return closed_ || !jobs_.empty(); });
  if (closed_) return std::nullopt;  // close() already drained the backlog
  Job job = std::move(jobs_.front());
  jobs_.pop_front();
  return job;
}

std::deque<Job> JobQueue::close() {
  std::deque<Job> drained;
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    drained.swap(jobs_);
  }
  cv_.notify_all();
  return drained;
}

}  // namespace hlsav::serve
