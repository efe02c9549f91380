#include "serve/service.h"

#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <fstream>
#include <iterator>

#include "serve/shard.h"
#include "support/io.h"
#include "support/jsonl.h"
#include "support/socket.h"

namespace hlsav::serve {

namespace {

using K = JobEvent::Kind;

Status ensure_dir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) return Status::ok_status();
  return Status::io_error("cannot create directory '" + path + "'");
}

std::string basename_of(const std::string& path) {
  std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::uint64_t unix_ms() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                        std::chrono::system_clock::now().time_since_epoch())
                                        .count());
}

std::string slurp_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

}  // namespace

StatusOr<std::unique_ptr<Service>> Service::start(ServiceOptions opt) {
  if (opt.worker_binary.empty()) {
    return Status::invalid_argument("service needs the hlsavd binary path for workers");
  }
  HLSAV_RETURN_IF_ERROR(ensure_dir(opt.work_dir));
  if (opt.spool_dir.empty()) opt.spool_dir = opt.work_dir + "/spool";
  StatusOr<JobSpool> spool = JobSpool::open(opt.spool_dir);
  HLSAV_RETURN_IF_ERROR(spool.status());
  StatusOr<int> listen_fd = unix_listen(opt.socket_path);
  HLSAV_RETURN_IF_ERROR(listen_fd.status());
  std::uint64_t started = unix_ms();
  std::string incarnation = std::to_string(started) + "-" + std::to_string(::getpid());
  auto service = std::unique_ptr<Service>(
      new Service(std::move(opt), *listen_fd, std::move(*spool), std::move(incarnation)));
  service->started_unix_ms_ = started;
  if (!service->opt_.events_out.empty()) {
    Status opened = service->events_.open(service->opt_.events_out);
    if (!opened.ok()) {
      ::unlink(service->opt_.socket_path.c_str());
      return opened;
    }
  }
  return service;
}

Service::~Service() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void Service::emit(JobEvent e) {
  std::lock_guard<std::recursive_mutex> lock(emit_mu_);
  const std::uint64_t now = tracer_.now_us();
  EventFold::LogLine line = fold_.apply(e, now);
  const JobView* view = fold_.view(e.job);
  const std::uint64_t id = e.job;
  const std::uint64_t life = ServiceTracer::kLifecycleTid;
  const std::uint64_t wtid =
      ServiceTracer::kWorkerTidBase + static_cast<std::uint64_t>(e.worker < 0 ? 0 : e.worker);
  const std::string site = "s" + std::to_string(e.site);
  std::vector<WatchFrame> frames;
  auto frame = [&](std::string l, WatchFrame::Cls cls = WatchFrame::Cls::kCritical) {
    frames.push_back(WatchFrame{cls, std::move(l), {}});
  };
  auto spool = [&](const std::string& state, const std::string& detail) {
    (void)spool_.record_state(id, state, detail);
  };
  bool close = false;

  switch (e.kind) {
    case K::kDaemonStart:
      tracer_.name_job(0, "daemon");
      tracer_.begin_span(0, life, "recovery");
      break;
    case K::kRecovered:
      tracer_.end_span(0, life, "recovery");
      break;
    case K::kSettled:
      spool(e.state, e.detail);
      break;
    case K::kAdmitted:
      // The channel opens before the queue push: an executor that pops
      // instantly must find it.
      hub_.open_job(*view);
      if (e.detail == "resubmit") spool("queued", "resubmitted");
      if (e.detail == "re-adopt") spool("queued", "re-adopted at boot");
      break;
    case K::kQueued:
      tracer_.name_job(id, "job " + std::to_string(id) + " " + basename_of(view->design));
      tracer_.instant(id, life, e.detail);
      tracer_.begin_span(id, life, "queued");
      break;
    case K::kRejected:
      if (!e.state.empty()) {
        spool(e.state, e.detail);
        close = true;
      }
      break;
    case K::kAborted:
      // The spool remembers the abort: a restarted daemon will not
      // re-run the job unprompted, but a resubmit with the same key
      // requeues it (resuming any journaled progress).
      spool("aborted", e.detail);
      tracer_.end_span(id, life, "queued");
      frame(encode_state(id, "aborted"));
      frame(encode_rejected(Status::unavailable(e.detail)));
      close = true;
      break;
    case K::kStarted:
      spool("running", "");
      tracer_.end_span(id, life, "queued");
      tracer_.begin_span(id, life, "run");
      frame(encode_state(id, "running"));
      break;
    case K::kPhaseBegin:
      tracer_.begin_span(id, life, e.detail);
      if (e.detail == "merge") frame(encode_state(id, "merging"));
      break;
    case K::kPhaseEnd:
      tracer_.end_span(id, life, e.detail);
      break;
    case K::kProgress:
      frame(encode_progress(id, e.done, e.total), WatchFrame::Cls::kProgress);
      break;
    case K::kSiteStarted:
      frame(encode_site_started(id, e.site, e.worker), WatchFrame::Cls::kSite);
      tracer_.begin_span(id, wtid, site);
      break;
    case K::kSiteDone:
      frame(encode_site_done(id, e.site, e.worker, e.detail), WatchFrame::Cls::kSite);
      tracer_.end_span(id, wtid, site);
      break;
    case K::kWorkerCrashed:
      frame(encode_worker_crashed(id, e.site, e.worker, e.detail));
      tracer_.instant(id, wtid, "respawn site " + site);
      break;
    case K::kQuarantined:
      frame(encode_quarantined(id, e.site));
      tracer_.instant(id, wtid, "quarantine site " + site);
      break;
    case K::kReport:
      // Every subscriber, the submitting client included, receives the
      // identical sized report frame.
      frames.push_back(WatchFrame{WatchFrame::Cls::kCritical,
                                  encode_report_header(id, e.payload.size()),
                                  std::move(e.payload)});
      break;
    case K::kFinished: {
      std::string done_line = encode_done(id, e.state == "done" ? "ok" : e.state, e.detail);
      tracer_.end_span(id, life, "queued");
      tracer_.end_span(id, life, "run");
      // Counters (folded above) and the terminal spool record land
      // before the done frame: once a client has read "done", a status
      // query counts the job and a restarted daemon agrees it is over.
      spool(e.state, e.state == "done" ? "" : done_line);
      frame(encode_state(id, e.state));
      frame(std::move(done_line));
      close = true;
      break;
    }
    case K::kDaemonStop:
      hub_.shutdown();
      break;
    case K::kRestored:
    case K::kDuplicate:
    case K::kWatchSubscribed:
    case K::kWatchFrame:
    case K::kWatchClosed:
      break;
  }
  if (view != nullptr && (!frames.empty() || close)) hub_.publish(*view, std::move(frames));
  if (close) hub_.close_job(id);
  if (!line.name.empty()) events_.record(now, line.name, line.fields);
  if (e.kind == K::kDaemonStop) events_.close();
}

std::optional<EventFold::KeyInfo> Service::key_info(const std::string& key) {
  std::lock_guard<std::recursive_mutex> lock(emit_mu_);
  return fold_.key_info(key);
}

std::string Service::depths_field() {
  std::string out;
  for (const auto& [priority, depth] : queue_.depth_by_priority()) {
    if (!out.empty()) out += ';';
    out += std::to_string(priority) + ":" + std::to_string(depth);
  }
  return out;
}

std::string Service::workers_field() {
  std::string out;
  for (std::size_t w = 0; w < fold_.worker_stats.size(); ++w) {
    if (!out.empty()) out += ';';
    out += std::to_string(w) + ":" + std::to_string(fold_.worker_stats[w].first) + "/" +
           std::to_string(fold_.worker_stats[w].second);
  }
  return out;
}

std::string Service::status_reply() {
  std::lock_guard<std::recursive_mutex> lock(emit_mu_);
  std::string reply = "{\"type\":\"status\",\"queued\":" + std::to_string(fold_.queued) +
                      ",\"running\":" + std::to_string(fold_.running) +
                      ",\"completed\":" + std::to_string(fold_.completed) +
                      ",\"rejected\":" + std::to_string(fold_.rejected) + ",\"incarnation\":";
  jsonl::append_escaped(reply, fold_.incarnation);
  reply += ",\"started_unix_ms\":" + std::to_string(started_unix_ms_);
  reply += ",\"uptime_ms\":" +
           jsonl::format_double(static_cast<double>(tracer_.now_us()) / 1000.0);
  reply += ",\"recovered\":" + std::to_string(fold_.recovered);
  reply += ",\"depths\":";
  jsonl::append_escaped(reply, depths_field());
  reply += ",\"workers\":";
  jsonl::append_escaped(reply, workers_field());
  reply += '}';
  return reply;
}

std::string Service::metrics_snapshot() {
  std::lock_guard<std::recursive_mutex> lock(emit_mu_);
  std::uint64_t uptime_us = tracer_.now_us();
  std::string out = "{\"type\":\"metrics\",\"uptime_ms\":" +
                    jsonl::format_double(static_cast<double>(uptime_us) / 1000.0);
  out += ",\"jobs_queued_now\":" + std::to_string(fold_.queued);
  out += ",\"jobs_running_now\":" + std::to_string(fold_.running);
  out += ",\"queue_depths\":";
  jsonl::append_escaped(out, depths_field());
  out += ",\"worker_tallies\":";
  jsonl::append_escaped(out, workers_field());
  out += ",\"watch_subscribers_now\":" + std::to_string(hub_.subscriber_count());
  out += ",\"events_logged\":" + std::to_string(events_.sequence());
  double uptime_s = static_cast<double>(uptime_us) / 1e6;
  double rate = uptime_s > 0
                    ? static_cast<double>(fold_.counters.sites_done->value) / uptime_s
                    : 0.0;
  out += ",\"sites_per_sec\":" + jsonl::format_double(rate);
  out += "," + fold_.registry.to_json() + '}';
  return out;
}

Status Service::serve() {
  emit({.kind = K::kDaemonStart, .detail = opt_.socket_path});
  // Re-adopt spooled jobs *before* the executors start: recovered work
  // is already in the queue when the first pop happens, so boot order
  // (recovered first, FIFO within priority) is deterministic.
  HLSAV_RETURN_IF_ERROR(recover_jobs());
  executors_.reserve(opt_.executors);
  for (unsigned i = 0; i < opt_.executors; ++i) {
    executors_.emplace_back([this] {
      while (std::optional<Job> job = queue_.pop()) run_job(std::move(*job));
    });
  }

  Status accept_status;
  while (!shutdown_.load(std::memory_order_relaxed)) {
    StatusOr<int> fd = unix_accept(listen_fd_, /*timeout_ms=*/100);
    if (!fd.ok()) {
      accept_status = fd.status();
      break;
    }
    if (*fd < 0) continue;  // timeout: poll the shutdown flag again
    handle_connection(*fd);
  }

  // Graceful degradation: running jobs drain (workers report their
  // in-flight sites and exit; subscribers get a "drained" result),
  // queued jobs get a typed abort so no client is left hanging on a
  // silent close.
  drain_.store(true, std::memory_order_relaxed);
  for (Job& job : queue_.close()) {
    emit({.kind = K::kAborted,
          .job = job.id,
          .detail = "service shutting down before the job started; resubmit when it is back"});
  }
  for (std::thread& t : executors_) t.join();
  executors_.clear();

  // Every channel is closed now, so each subscriber sends what is left
  // and ends; one whose reader stalls past the grace period has its
  // send cut off by the stop flag.
  auto grace_end = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  auto all_finished = [&] {
    std::lock_guard<std::mutex> lock(watchers_mu_);
    for (const Watcher& w : watchers_) {
      if (!w.finished->load()) return false;
    }
    return true;
  };
  while (!all_finished() && std::chrono::steady_clock::now() < grace_end) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stopping_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(watchers_mu_);
    for (Watcher& w : watchers_) w.thread.join();
    watchers_.clear();
  }
  emit({.kind = K::kDaemonStop});
  ::unlink(opt_.socket_path.c_str());
  return accept_status;
}

void Service::spawn_watcher(std::function<void()> body) {
  std::lock_guard<std::mutex> lock(watchers_mu_);
  std::erase_if(watchers_, [](Watcher& w) {
    if (!w.finished->load()) return false;
    w.thread.join();
    return true;
  });
  auto finished = std::make_shared<std::atomic<bool>>(false);
  watchers_.push_back(Watcher{std::thread([body = std::move(body), finished] {
                                body();
                                finished->store(true);
                              }),
                              finished});
}

void Service::handle_connection(int fd) {
  LineReader reader(fd);
  StatusOr<std::string> line = reader.read_line(/*timeout_ms=*/2000);
  if (!line.ok()) {
    ::close(fd);
    return;
  }
  std::string type;
  std::uint64_t job = 0;
  (void)jsonl::parse_u64(*line, "job", job);
  if (!jsonl::parse_string(*line, "type", type)) {
    (void)send_line(fd, encode_rejected(Status::invalid_argument("request has no type")));
  } else if (type == "submit") {
    handle_submit(fd, *line);
    return;
  } else if (type == "watch") {
    StatusOr<std::shared_ptr<ProgressHub::Subscription>> sub =
        Status::invalid_argument("watch request has no job");
    if (job != 0) sub = hub_.subscribe(job);
    if (sub.ok()) {
      // Served on its own thread: the accept loop must never block
      // behind one watcher's socket buffer.
      spawn_watcher([this, fd, sub = *sub, job] { stream(fd, sub, job, /*submitter=*/false); });
      return;
    }
    (void)send_line(fd, encode_rejected(sub.status()));
  } else if (type == "status") {
    (void)send_line(fd, status_reply());
  } else if (type == "metrics") {
    (void)send_line(fd, metrics_snapshot());
  } else if (type == "trace") {
    StatusOr<std::string> json = tracer_.export_json(job);
    if (!json.ok()) {
      (void)send_line(fd, encode_rejected(json.status()));
    } else {
      std::string header = "{\"type\":\"trace\",\"job\":" + std::to_string(job) +
                           ",\"bytes\":" + std::to_string(json->size()) + "}";
      if (send_line(fd, header).ok()) (void)send_bytes(fd, *json);
    }
  } else if (type == "shutdown") {
    (void)send_line(fd, "{\"type\":\"ok\"}");
    shutdown_.store(true, std::memory_order_relaxed);
  } else {
    (void)send_line(fd, encode_rejected(Status::invalid_argument("unknown request type '" +
                                                                 type + "'")));
  }
  ::close(fd);
}

void Service::maybe_die_at(const std::string& phase) {
  if (opt_.die_at.empty() || opt_.die_at != phase) return;
  std::string token = opt_.work_dir + "/die_" + phase + ".token";
  // The token is the memory of having died: present means this
  // incarnation already paid the crash, so it sails through.
  if (::access(token.c_str(), F_OK) == 0) return;
  (void)write_file_atomic(token, "died\n");
  (void)::raise(SIGKILL);
}

void Service::replay_done(int fd, std::uint64_t job_id) {
  (void)send_line(fd, encode_accepted(job_id, /*duplicate=*/true));
  std::string report =
      slurp_file(opt_.work_dir + "/job_" + std::to_string(job_id) + "/report.txt");
  if (!report.empty()) {
    if (send_line(fd, encode_report_header(job_id, report.size())).ok()) {
      (void)send_bytes(fd, report);
    }
  }
  (void)send_line(fd, encode_done(job_id, "ok"));
  ::close(fd);
}

Status Service::recover_jobs() {
  StatusOr<SpoolScan> scan = spool_.scan();
  HLSAV_RETURN_IF_ERROR(scan.status());
  std::uint64_t max_id = 0;
  for (const SpoolEntry& e : scan->entries) {
    max_id = std::max(max_id, e.job);
    emit({.kind = K::kRestored, .job = e.job, .state = e.state, .detail = e.submit_line,
          .key = e.key});
    // A key already owned by an earlier entry stays on disk but is
    // never re-adopted.
    if (e.terminal() || key_info(e.key)->job != e.job) continue;
    StatusOr<CampaignSpec> spec = decode_submit(e.submit_line);
    if (!spec.ok()) {
      emit({.kind = K::kSettled, .job = e.job, .state = "error",
            .detail = "unreadable spooled spec: " + spec.status().message(), .key = e.key});
      continue;
    }
    if (e.deadline_ms > 0 && unix_ms() > e.submitted_unix_ms + e.deadline_ms) {
      // Expired while the daemon was down: typed terminal state, never
      // a silent drop -- a resubmit with the key learns what happened.
      emit({.kind = K::kSettled, .job = e.job, .state = "deadline-expired",
            .detail = "deadline passed while the daemon was down", .key = e.key});
      continue;
    }
    Job job;
    job.id = e.job;
    job.spec = std::move(*spec);
    if (e.deadline_ms > 0) job.deadline_unix_ms = e.submitted_unix_ms + e.deadline_ms;
    if (!admit(std::move(job), -1, "re-adopt", e.state)) break;  // shutting down
  }
  if (max_id >= next_job_id_.load()) next_job_id_.store(max_id + 1);
  emit({.kind = K::kRecovered, .done = scan->quarantined, .total = scan->torn_tails});
  return Status::ok_status();
}

void Service::reject(int fd, const Status& st, std::uint64_t job, const std::string& state) {
  emit({.kind = K::kRejected, .job = job, .state = state, .detail = st.message()});
  if (fd < 0) return;
  (void)send_line(fd, encode_rejected(st));
  ::close(fd);
}

bool Service::admit(Job job, int fd, const std::string& origin, const std::string& bounce_state) {
  const std::uint64_t id = job.id;
  emit({.kind = K::kAdmitted, .job = id, .detail = origin, .spec = &job.spec});
  if (origin == "submit") maybe_die_at("spooled");
  // The submitter follows its job as an ordinary subscriber, attached
  // before the push so it cannot miss the first frame.
  std::shared_ptr<ProgressHub::Subscription> sub;
  if (fd >= 0) sub = *hub_.subscribe(id);
  Status pushed;
  {
    // Push and announce under the emit lock, so an executor that pops
    // the job at once cannot emit kStarted before kQueued.
    std::lock_guard<std::recursive_mutex> lock(emit_mu_);
    pushed = queue_.push(std::move(job), /*force=*/origin == "re-adopt");
    if (pushed.ok()) emit({.kind = K::kQueued, .job = id, .detail = origin});
  }
  if (!pushed.ok()) {
    // Typed back-pressure: the client learns *why* (queue full vs
    // shutting down) and can retry later; nothing is silently dropped.
    if (sub != nullptr) hub_.unsubscribe(sub);
    reject(fd, pushed, id, bounce_state);
    return false;
  }
  if (fd >= 0) {
    (void)send_line(fd, encode_accepted(id, /*duplicate=*/origin != "submit"));
    spawn_watcher([this, fd, sub, id] { stream(fd, sub, id, /*submitter=*/true); });
  }
  return true;
}

void Service::handle_submit(int fd, const std::string& line) {
  StatusOr<CampaignSpec> spec = decode_submit(line);
  if (!spec.ok()) return reject(fd, spec.status(), 0);
  maybe_die_at("accept");

  // Idempotency: every job has a key (the daemon assigns one when the
  // client does not).
  if (spec->key.empty()) {
    spec->key = "d" + fold_.incarnation + "-" + std::to_string(next_job_id_.load()) + "-" +
                std::to_string(tracer_.now_us());
  }
  const std::string canonical = encode_submit(*spec);
  const std::uint64_t now_ms = unix_ms();
  Job job;
  job.spec = std::move(*spec);
  if (job.spec.deadline_ms > 0) job.deadline_unix_ms = now_ms + job.spec.deadline_ms;

  if (std::optional<EventFold::KeyInfo> known = key_info(job.spec.key)) {
    if (known->submit_line != canonical) {
      return reject(fd,
                    Status::invalid_argument("idempotency key '" + job.spec.key +
                                             "' was already used with a different spec"),
                    known->job);
    }
    emit({.kind = K::kDuplicate, .job = known->job, .state = known->state, .key = job.spec.key});
    if (known->state == "done") {
      // Completed (possibly in a previous incarnation): replay the
      // persisted report -- byte-identical, never a re-run.
      spawn_watcher([this, fd, id = known->job] { replay_done(fd, id); });
    } else if (!JobSpool::state_terminal(known->state)) {
      // Still queued or running: attach this client to the live stream.
      StatusOr<std::shared_ptr<ProgressHub::Subscription>> sub = hub_.subscribe(known->job);
      if (!sub.ok()) return reject(fd, sub.status(), known->job);
      (void)send_line(fd, encode_accepted(known->job, /*duplicate=*/true));
      spawn_watcher([this, fd, sub = *sub, id = known->job] {
        stream(fd, sub, id, /*submitter=*/true);
      });
    } else {
      // Terminal failure (error/aborted/drained/deadline-expired):
      // requeue the *same* job id -- its job journal resumes
      // byte-identically behind the fingerprint gate.
      job.id = known->job;
      (void)admit(std::move(job), fd, "resubmit", known->state);
    }
    return;
  }

  // Write-ahead rule: the job is on disk (entry fsync'd, directory
  // fsync'd) before the accept promise goes out or an executor can
  // see it.
  job.id = next_job_id_.fetch_add(1);
  SpoolEntry entry;
  entry.job = job.id;
  entry.key = job.spec.key;
  entry.submit_line = canonical;
  entry.priority = job.spec.priority;
  entry.deadline_ms = job.spec.deadline_ms;
  entry.submitted_unix_ms = now_ms;
  Status spooled = spool_.record_accepted(entry);
  if (!spooled.ok()) return reject(fd, spooled, job.id);
  (void)admit(std::move(job), fd, "submit", "aborted");
}

void Service::run_job(Job job) {
  const std::uint64_t id = job.id;
  auto finish = [&](const std::string& state, const std::string& message,
                    std::uint64_t journal_bytes = 0) {
    emit({.kind = K::kFinished, .job = id, .total = journal_bytes, .state = state,
          .detail = message});
  };
  // A deadline that passed while the job sat in the queue is a typed
  // terminal outcome, never a silent drop.
  if (job.deadline_unix_ms > 0 && unix_ms() > job.deadline_unix_ms) {
    return finish("deadline-expired", "deadline of " + std::to_string(job.spec.deadline_ms) +
                                          "ms passed while the job was queued");
  }
  emit({.kind = K::kStarted, .job = id});

  std::string job_dir = opt_.work_dir + "/job_" + std::to_string(id);
  Status dir_ok = ensure_dir(job_dir);
  if (!dir_ok.ok()) return finish("error", dir_ok.to_string());

  SupervisorOptions sup;
  sup.worker_binary = opt_.worker_binary;
  sup.job_dir = job_dir;
  sup.workers = job.spec.workers != 0 ? job.spec.workers : opt_.default_workers;
  sup.quarantine_cap = opt_.quarantine_cap;
  sup.backoff_base_ms = opt_.backoff_base_ms;
  sup.backoff_cap_ms = opt_.backoff_cap_ms;
  sup.heartbeat_timeout_ms = opt_.heartbeat_timeout_ms;
  sup.drain = &drain_;
  sup.event_sink = [&](JobEvent e) {
    // Crash injection: the first site heartbeat proves the job journal
    // exists on disk -- the daemon dying *here* leaves a half-swept
    // journal for the restart to resume.
    if (e.kind == K::kSiteStarted) maybe_die_at("shard-spawned");
    if (e.kind == K::kPhaseBegin && e.detail == "merge") maybe_die_at("pre-merge");
    e.job = id;
    emit(std::move(e));
  };

  StatusOr<SupervisedResult> result = run_sharded_campaign(job.spec, sup);
  if (!result.ok()) return finish("error", result.status().to_string());
  // Persist the report before the terminal spool record can say "done":
  // a duplicate resubmit of a finished job replays these exact bytes,
  // and "done" in the spool must imply the report is on disk.
  if (!result->rendered.empty() && !result->drained) {
    Status saved = write_file_atomic(job_dir + "/report.txt", result->rendered);
    if (!saved.ok()) return finish("error", saved.to_string(), result->journal_bytes);
  }
  maybe_die_at("pre-done");
  if (!result->rendered.empty()) {
    emit({.kind = K::kReport, .job = id, .payload = std::move(result->rendered)});
  }
  finish(result->drained ? "drained" : "done", "", result->journal_bytes);
}

void Service::stream(int fd, std::shared_ptr<ProgressHub::Subscription> sub, std::uint64_t job,
                     bool submitter) {
  emit({.kind = K::kWatchSubscribed, .job = job, .submitter = submitter});
  std::uint64_t sent = 0;
  for (;;) {
    std::optional<WatchFrame> frame = hub_.next(sub, /*timeout_ms=*/200);
    if (!frame.has_value()) {
      if (sub->finished() || stopping_.load(std::memory_order_relaxed)) break;
      continue;  // timeout: poll the stop flag again
    }
    // Count the frame before writing it so a client that acts on a
    // received frame (e.g. queries metrics right after the done frame)
    // observes a counter that already includes it.
    emit({.kind = K::kWatchFrame, .job = job, .submitter = submitter});
    Status st = send_line_interruptible(fd, frame->line, stopping_);
    if (st.ok() && !frame->payload.empty()) {
      st = send_bytes_interruptible(fd, frame->payload, stopping_);
    }
    if (!st.ok()) break;  // client vanished or daemon stopping
    ++sent;
  }
  hub_.unsubscribe(sub);
  ::close(fd);
  emit({.kind = K::kWatchClosed, .job = job, .done = sent, .total = sub->coalesced(),
        .submitter = submitter});
}

}  // namespace hlsav::serve
