#include "serve/events.h"

#include <cstdio>

#include "support/jsonl.h"

namespace hlsav::serve {

Status EventLog::open(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (log_ != nullptr) return Status::invalid_argument("event log already open");
  // A line torn by a crash (no newline yet) would glue itself to this
  // incarnation's first line: keep only the complete lines.
  StatusOr<wal::Prefix> prefix = wal::load(path, [](const std::string&) { return true; });
  StatusOr<std::unique_ptr<wal::Log>> log =
      wal::Log::open(path, prefix.ok() ? prefix->valid_bytes : wal::Log::kKeepAll);
  if (!log.ok()) return Status::io_error("cannot open event log: " + log.status().message());
  log_ = std::move(*log);
  return Status::ok_status();
}

void EventLog::record(std::uint64_t ts_us, const std::string& name,
                      const std::vector<Field>& fields) {
  std::lock_guard<std::mutex> lock(mu_);
  if (log_ == nullptr) return;
  // Millisecond timestamps with exact microsecond fractions: integer
  // arithmetic, so the JSON never grows double round-trip noise.
  char ts[32];
  std::snprintf(ts, sizeof(ts), "%llu.%03llu",
                static_cast<unsigned long long>(ts_us / 1000),
                static_cast<unsigned long long>(ts_us % 1000));
  std::string line = "{\"seq\":" + std::to_string(++seq_) + ",\"ts_ms\":" + ts + ",\"event\":";
  jsonl::append_escaped(line, name);
  for (const Field& f : fields) {
    line += ",\"" + f.key + "\":";
    if (f.raw) {
      line += f.value;
    } else {
      jsonl::append_escaped(line, f.value);
    }
  }
  line += '}';
  (void)log_->append(line);
}

std::uint64_t EventLog::sequence() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seq_;
}

void EventLog::close() {
  std::lock_guard<std::mutex> lock(mu_);
  log_.reset();
}

EventFold::EventFold(std::string inc) : incarnation(std::move(inc)) {
  counters.jobs_submitted = registry.counter("jobs_submitted");
  counters.jobs_rejected = registry.counter("jobs_rejected");
  counters.jobs_completed = registry.counter("jobs_completed");
  counters.jobs_drained = registry.counter("jobs_drained");
  counters.jobs_failed = registry.counter("jobs_failed");
  counters.worker_respawns = registry.counter("worker_respawns");
  counters.workers_spawned = registry.counter("workers_spawned");
  counters.workers_reused = registry.counter("workers_reused");
  counters.sites_quarantined = registry.counter("sites_quarantined");
  counters.sites_done = registry.counter("sites_done");
  counters.sites_compiled = registry.counter("sites_compiled");
  counters.journal_bytes = registry.counter("journal_bytes");
  counters.watch_subscribers = registry.counter("watch_subscribers");
  counters.watch_frames_sent = registry.counter("watch_frames_sent");
  counters.watch_frames_coalesced = registry.counter("watch_frames_coalesced");
  counters.jobs_recovered = registry.counter("jobs_recovered");
  counters.jobs_duplicate = registry.counter("jobs_duplicate");
  counters.jobs_deadline_expired = registry.counter("jobs_deadline_expired");
  counters.spool_quarantined = registry.counter("spool_quarantined");
  counters.job_wall_ms = registry.histogram("job_wall_ms");
}

const JobView* EventFold::view(std::uint64_t job) const {
  auto it = jobs_.find(job);
  return it == jobs_.end() ? nullptr : &it->second.view;
}

std::optional<EventFold::KeyInfo> EventFold::key_info(const std::string& key) const {
  auto it = keys_.find(key);
  if (it == keys_.end()) return std::nullopt;
  return it->second;
}

EventFold::LogLine EventFold::apply(const JobEvent& e, std::uint64_t now_us) {
  using K = JobEvent::Kind;
  using F = EventLog::Field;
  JobRecord* rec = nullptr;
  if (auto it = jobs_.find(e.job); it != jobs_.end()) rec = &it->second;
  auto set_state = [&](const std::string& state) {
    if (rec != nullptr) {
      rec->view.state = state;
      if (auto k = keys_.find(rec->key); k != keys_.end()) k->second.state = state;
    }
  };
  auto worker_stat = [&](bool quarantine) -> std::uint64_t& {
    auto w = static_cast<std::size_t>(e.worker < 0 ? 0 : e.worker);
    if (worker_stats.size() <= w) worker_stats.resize(w + 1, {0, 0});
    return quarantine ? worker_stats[w].second : worker_stats[w].first;
  };
  const F job = F::num("job", e.job);

  switch (e.kind) {
    case K::kDaemonStart:
      return {"daemon-start", {F::str("socket", e.detail), F::str("incarnation", incarnation)}};
    case K::kRecovered:
      counters.spool_quarantined->add(e.done);
      return {"daemon-recovered",
              {F::str("incarnation", incarnation), F::num("requeued", recovered),
               F::num("expired", counters.jobs_deadline_expired->value),
               F::num("quarantined", e.done), F::num("torn_tails", e.total)}};
    case K::kDaemonStop:
      return {"daemon-stop",
              {F::num("jobs_completed", completed), F::num("jobs_rejected", rejected)}};
    case K::kRestored:
      // The same key in two entries (an interrupted incarnation's
      // near-miss): the earliest job owns the key.
      if (!keys_.emplace(e.key, KeyInfo{e.job, e.detail, e.state}).second) {
        return {"spool-duplicate-key", {job, F::str("key", e.key)}};
      }
      return {};
    case K::kSettled:
      if (auto k = keys_.find(e.key); k != keys_.end()) k->second.state = e.state;
      if (e.state != "deadline-expired") return {};
      counters.jobs_deadline_expired->add();
      return {"job-deadline-expired", {job}};
    case K::kAdmitted: {
      JobRecord& r = jobs_[e.job];
      r = JobRecord{};
      r.view.id = e.job;
      r.view.priority = e.spec->priority;
      r.view.design = e.spec->design_path;
      r.key = e.spec->key;
      keys_[r.key] = KeyInfo{e.job, encode_submit(*e.spec), "queued"};
      return {};
    }
    case K::kQueued:
      ++queued;
      if (e.detail == "re-adopt") {
        ++recovered;
        counters.jobs_recovered->add();
      } else {
        counters.jobs_submitted->add();
      }
      if (rec == nullptr) return {};
      if (e.detail != "submit") return {"job-requeued", {job, F::str("key", rec->key)}};
      return {"job-submitted",
              {job, F{"priority", std::to_string(rec->view.priority), /*raw=*/true},
               F::str("design", rec->view.design)}};
    case K::kRejected: {
      ++rejected;
      counters.jobs_rejected->add();
      if (!e.state.empty()) set_state(e.state);
      LogLine line{"job-rejected", {}};
      if (e.job != 0) line.fields.push_back(job);
      line.fields.push_back(F::str("reason", e.detail));
      return line;
    }
    case K::kDuplicate:
      counters.jobs_duplicate->add();
      return {"job-duplicate", {job, F::str("key", e.key), F::str("state", e.state)}};
    case K::kAborted:
      --queued;
      ++rejected;
      counters.jobs_rejected->add();
      set_state("aborted");
      return {"job-aborted", {job}};
    case K::kStarted:
      --queued;
      ++running;
      set_state("running");
      if (rec != nullptr) rec->run_start_us = now_us;
      return {"job-started", {job}};
    case K::kPhaseBegin:
      if (e.detail == "merge" && rec != nullptr) rec->view.state = "merging";
      return {};
    case K::kPhaseEnd:
    case K::kSiteStarted:
    case K::kReport:
      return {};
    case K::kProgress:
      if (rec != nullptr) {
        rec->view.done = e.done;
        rec->view.total = e.total;
      }
      return {};
    case K::kWorkerAssigned:
      (e.detail == "reused" ? counters.workers_reused : counters.workers_spawned)->add();
      return {"worker-assigned",
              {job, F::num("worker", static_cast<std::uint64_t>(e.worker < 0 ? 0 : e.worker)),
               F::str("detail", e.detail)}};
    case K::kSiteDone:
      counters.sites_done->add();
      if (e.compiled) counters.sites_compiled->add();
      return {};
    case K::kWorkerCrashed:
      if (rec != nullptr) ++rec->view.respawns;
      ++worker_stat(/*quarantine=*/false);
      counters.worker_respawns->add();
      return {"worker-crashed",
              {job, F::num("site", e.site),
               F::num("worker", static_cast<std::uint64_t>(e.worker < 0 ? 0 : e.worker)),
               F::str("detail", e.detail)}};
    case K::kQuarantined:
      if (rec != nullptr) ++rec->view.quarantined;
      ++worker_stat(/*quarantine=*/true);
      counters.sites_quarantined->add();
      return {"site-quarantined", {job, F::num("site", e.site)}};
    case K::kFinished: {
      // A job whose deadline passed in the queue finishes without
      // ever starting.
      bool ran = rec != nullptr && rec->run_start_us.has_value();
      --(ran ? running : queued);
      ++completed;
      if (e.state == "done") {
        counters.jobs_completed->add();
      } else if (e.state == "drained") {
        counters.jobs_drained->add();
      } else {
        counters.jobs_failed->add();
      }
      if (e.state == "deadline-expired") counters.jobs_deadline_expired->add();
      counters.journal_bytes->add(e.total);
      counters.job_wall_ms->record(ran ? (now_us - *rec->run_start_us) / 1000 : 0);
      set_state(e.state);
      LogLine line{"job-completed",
                   {job, F::str("status", e.state), F::num("done", rec ? rec->view.done : 0),
                    F::num("total", rec ? rec->view.total : 0)}};
      if (!e.engine_note.empty()) line.fields.push_back(F::str("engine_note", e.engine_note));
      return line;
    }
    case K::kWatchSubscribed:
      if (e.submitter) return {};
      counters.watch_subscribers->add();
      return {"watch-subscribed", {job}};
    case K::kWatchFrame:
      if (!e.submitter) counters.watch_frames_sent->add();
      return {};
    case K::kWatchClosed:
      if (e.submitter) return {};
      counters.watch_frames_coalesced->add(e.total);
      return {"watch-closed", {job, F::num("frames", e.done), F::num("coalesced", e.total)}};
  }
  return {};
}

}  // namespace hlsav::serve
