#include "serve/shard.h"

#include <poll.h>
#include <signal.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>
#include <optional>
#include <set>

#include "codegen/engine.h"
#include "pipeline/compile.h"
#include "sim/journal.h"
#include "support/jsonl.h"
#include "support/subprocess.h"

namespace hlsav::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Longest poll(2) wait: how often the drain flag, respawn timers and
/// the watchdog are checked. Worker lines wake the supervisor at once.
constexpr int kTickMs = 20;

double ms_since(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

struct WorkerState {
  int index = 0;
  std::optional<Subprocess> proc;
  std::string stdout_buf;
  Clock::time_point last_heartbeat;
  Clock::time_point respawn_at;
  unsigned attempts = 0;  // consecutive crash respawns (backoff exponent)
  bool pending_respawn = false;
  bool complete = false;
  /// Sent a line that breaks the protocol; killed, then contained.
  bool broken = false;
  /// Site handed to this worker and not yet reported; -1 when none
  /// (its stdin is closed). The blame target when the worker dies.
  std::int64_t inflight = -1;
};

}  // namespace

StatusOr<SupervisedResult> run_sharded_campaign(const CampaignSpec& spec,
                                                const SupervisorOptions& opt) {
  if (opt.worker_binary.empty()) {
    return Status::invalid_argument("supervisor needs a worker binary path");
  }
  if (opt.job_dir.empty()) return Status::invalid_argument("supervisor needs a job directory");

  auto emit = [&](JobEvent e) {
    if (opt.event_sink) opt.event_sink(std::move(e));
  };
  auto emit_phase = [&](JobEvent::Kind kind, const char* name) {
    emit({.kind = kind, .detail = name});
  };

  emit_phase(JobEvent::Kind::kPhaseBegin, "compile");
  // Compile and plan exactly as a worker does: the workers check the
  // supervisor's golden cycle count before they run a site.
  std::optional<assertions::Options> mode = assertions::Options::by_name(spec.assertions);
  if (!mode.has_value()) {
    return Status::invalid_argument("unknown assertions mode '" + spec.assertions + "'");
  }
  SourceManager sm;
  DiagnosticEngine diags(&sm);
  pipeline::CompileOptions copts;
  copts.assert_opts = *mode;
  StatusOr<pipeline::Compiled> compiled = pipeline::compile_file(sm, diags, spec.design_path, copts);
  if (!compiled.ok()) {
    return Status::error(compiled.status().code(), "cannot compile '" + spec.design_path +
                                                       "': " + compiled.status().message() +
                                                       "\n" + diags.render());
  }
  const ir::Design& design = compiled->design;

  StatusOr<std::map<std::string, std::vector<std::uint64_t>>> feeds =
      parse_feed_spec(spec.feeds);
  if (!feeds.ok()) return feeds.status();

  sim::CampaignOptions copt;
  copt.seed = spec.seed;
  copt.max_faults = spec.max_faults;
  copt.max_cycles = spec.max_cycles;
  copt.site_wall_ms = spec.site_wall_ms;
  sim::ExternRegistry externs;
  StatusOr<sim::CampaignPlan> plan =
      sim::plan_campaign(design, compiled->schedule, externs, *feeds, copt);
  HLSAV_RETURN_IF_ERROR(plan.status());
  if (plan->selected.empty()) return Status::invalid_argument("campaign selects no fault sites");

  // The job journal is an ordinary campaign journal: a re-adopted or
  // resubmitted job resumes it, and so can `hlsavc --resume`.
  const std::string journal_path = opt.job_dir + "/journal.jsonl";
  StatusOr<sim::OpenedJournal> journal = sim::open_journal(*plan, journal_path, /*resume=*/true);
  HLSAV_RETURN_IF_ERROR(journal.status());
  std::map<std::uint32_t, sim::FaultResult> results = std::move(journal->restored);
  emit_phase(JobEvent::Kind::kPhaseEnd, "compile");

  std::deque<std::uint32_t> pending;  // selected, unclassified, not in flight
  for (std::uint32_t id : plan->selected) {
    if (results.count(id) == 0) pending.push_back(id);
  }
  if (!pending.empty()) {
    // One host-compiler run per design, here, rather than one per
    // worker on a cold cache: the workers then load the cached module.
    // The supervisor never loads it (its golden run interprets). If the
    // build fails, each worker fails the same way and names the reason.
    emit_phase(JobEvent::Kind::kPhaseBegin, "jit");
    (void)codegen::prebuild(design, compiled->schedule);
    emit_phase(JobEvent::Kind::kPhaseEnd, "jit");
  }
  unsigned workers = std::max(1u, opt.workers);
  workers = static_cast<unsigned>(std::min<std::size_t>(workers, pending.size()));
  std::vector<WorkerState> pool(workers);
  for (unsigned w = 0; w < workers; ++w) pool[w].index = static_cast<int>(w);
  // Every exit path, errors included, leaves no worker behind.
  struct Reaper {
    std::vector<WorkerState>& pool;
    ~Reaper() {
      for (WorkerState& w : pool) {
        if (!w.proc.has_value() || w.proc->poll().has_value()) continue;
        w.proc->kill(SIGKILL);
        (void)w.proc->wait();
      }
    }
  } reaper{pool};

  SupervisedResult result;
  std::set<std::uint32_t> quarantined;
  std::map<std::uint32_t, unsigned> crash_counts;
  std::uint64_t last_reported_done = ~0ull;
  bool draining = false;

  auto emit_progress = [&] {
    std::uint64_t done = results.size() + quarantined.size();
    if (done == last_reported_done) return;
    last_reported_done = done;
    emit({.kind = JobEvent::Kind::kProgress, .done = done, .total = plan->selected.size()});
  };

  /// Hands `w` its next site, or EOF when none is left to hand out.
  auto dispatch = [&](WorkerState& w) {
    if (pending.empty() || draining) {
      w.proc->close_stdin();
      return;
    }
    w.inflight = pending.front();
    pending.pop_front();
    // A failed write means the worker is gone; its death path requeues
    // the site.
    (void)w.proc->write_stdin(std::to_string(w.inflight) + "\n");
  };

  auto spawn_worker = [&](WorkerState& w) -> Status {
    std::vector<std::string> argv = {
        opt.worker_binary,
        "worker",
        "--design=" + spec.design_path,
        "--max-cycles=" + std::to_string(plan->header.max_cycles),
        "--golden-cycles=" + std::to_string(plan->golden.cycles),
        "--assertions=" + spec.assertions,
    };
    if (spec.site_wall_ms > 0.0) {
      argv.push_back("--site-wall-ms=" + std::to_string(spec.site_wall_ms));
    }
    if (!spec.feeds.empty()) argv.push_back("--feed=" + spec.feeds);
    if (!spec.crash_at.empty() || !spec.stall_at.empty()) {
      argv.push_back("--fault-token-dir=" + opt.job_dir);
      argv.push_back("--crash-limit=" + std::to_string(spec.crash_limit));
      for (std::uint32_t id : spec.crash_at) {
        argv.push_back("--crash-at-site=" + std::to_string(id));
      }
      for (std::uint32_t id : spec.stall_at) {
        argv.push_back("--stall-at-site=" + std::to_string(id));
      }
    }
    // kill_on_parent_death: if the daemon itself dies (kill -9), its
    // workers must not keep running sites a restarted daemon will hand
    // out again.
    StatusOr<Subprocess> proc = Subprocess::spawn(argv, /*capture_stdout=*/true,
                                                  /*kill_on_parent_death=*/true,
                                                  /*pipe_stdin=*/true);
    HLSAV_RETURN_IF_ERROR(proc.status());
    w.proc.emplace(std::move(*proc));
    w.stdout_buf.clear();
    w.inflight = -1;
    w.broken = false;
    w.last_heartbeat = Clock::now();
    w.pending_respawn = false;
    dispatch(w);
    return Status::ok_status();
  };

  /// A worker died owing a site: blame the site, maybe quarantine it,
  /// and schedule a respawn while sites are left.
  auto contain_death = [&](WorkerState& w, const ExitInfo& info) {
    auto blamed = static_cast<std::uint32_t>(w.inflight);
    w.inflight = -1;
    result.respawns++;
    unsigned& crashes = crash_counts[blamed];
    crashes++;
    emit({.kind = JobEvent::Kind::kWorkerCrashed,
          .site = blamed,
          .worker = w.index,
          .detail = info.describe()});
    if (crashes >= opt.quarantine_cap) {
      quarantined.insert(blamed);
      emit({.kind = JobEvent::Kind::kQuarantined, .site = blamed, .worker = w.index});
    } else {
      pending.push_front(blamed);
    }
    if (pending.empty() || draining) {
      w.complete = true;
      return;
    }
    std::uint64_t backoff = opt.backoff_base_ms << std::min(w.attempts, 20u);
    backoff = std::min(backoff, opt.backoff_cap_ms);
    w.attempts++;
    w.pending_respawn = true;
    w.respawn_at = Clock::now() + std::chrono::milliseconds(backoff);
  };

  /// Acts on every complete line `w` has sent. A result is journaled
  /// (fsync'd) before the worker gets its next site; only a journal
  /// failure is an error.
  auto handle_lines = [&](WorkerState& w) -> Status {
    for (;;) {
      std::size_t eol = w.stdout_buf.find('\n');
      if (eol == std::string::npos || w.broken) return Status::ok_status();
      std::string line = w.stdout_buf.substr(0, eol);
      w.stdout_buf.erase(0, eol + 1);
      std::string type;
      std::uint64_t site = 0;
      if (!jsonl::parse_string(line, "type", type) || !jsonl::parse_u64(line, "site", site)) {
        continue;
      }
      w.last_heartbeat = Clock::now();
      sim::FaultResult r;
      bool ours = static_cast<std::int64_t>(site) == w.inflight;
      if (!ours || (type == "site" && !sim::parse_journal_line(line, r))) {
        // A line about a site this worker was not handed, or a result
        // that does not parse: a broken worker, never a journal line.
        w.broken = true;
        w.proc->kill(SIGKILL);
        return Status::ok_status();
      }
      if (type == "starting") {
        emit({.kind = JobEvent::Kind::kSiteStarted,
              .site = static_cast<std::uint32_t>(site),
              .worker = w.index});
      } else if (type == "site") {
        r.site = plan->sites[site];
        std::string engine;
        r.ran_compiled = jsonl::parse_string(line, "engine", engine) && engine == "compiled";
        (void)jsonl::parse_string(line, "engine_note", r.engine_note);
        Status st = journal->journal->append(r);
        if (!st.ok()) {
          return Status::error(st.code(), "job journal append failed: " + st.message());
        }
        w.inflight = -1;
        w.attempts = 0;
        result.report.count_run(r);
        emit({.kind = JobEvent::Kind::kSiteDone,
              .site = static_cast<std::uint32_t>(site),
              .worker = w.index,
              .detail = sim::fault_outcome_name(r.outcome),
              .compiled = r.ran_compiled});
        results.emplace(static_cast<std::uint32_t>(site), std::move(r));
        dispatch(w);
      }
    }
  };

  emit_progress();
  emit_phase(JobEvent::Kind::kPhaseBegin, "shard");
  for (WorkerState& w : pool) HLSAV_RETURN_IF_ERROR(spawn_worker(w));

  std::vector<pollfd> fds;
  for (;;) {
    if (!draining && opt.drain != nullptr && opt.drain->load(std::memory_order_relaxed)) {
      // Each worker finishes and reports its in-flight site, then exits
      // 21; no site is handed out after this.
      draining = true;
      result.drained = true;
      for (WorkerState& w : pool) {
        if (w.proc.has_value() && !w.complete) w.proc->kill(SIGTERM);
      }
    }
    bool all_complete = true;
    fds.clear();
    for (WorkerState& w : pool) {
      if (w.complete) continue;
      if (w.pending_respawn) {
        if (draining || pending.empty()) {
          w.complete = true;  // nothing left for it, or stop retrying
          continue;
        }
        if (Clock::now() < w.respawn_at) {
          all_complete = false;
          continue;
        }
        HLSAV_RETURN_IF_ERROR(spawn_worker(w));
      }
      all_complete = false;
      if (w.proc->stdout_fd() >= 0) fds.push_back({w.proc->stdout_fd(), POLLIN, 0});
    }
    emit_progress();
    if (all_complete) break;
    (void)::poll(fds.data(), fds.size(), kTickMs);

    for (WorkerState& w : pool) {
      if (w.complete || w.pending_respawn) continue;
      bool open = w.proc->read_stdout(w.stdout_buf);
      HLSAV_RETURN_IF_ERROR(handle_lines(w));
      if (open) {
        // Heartbeat watchdog: a silent worker (stalled site, livelock
        // the in-process backstops missed) dies by SIGKILL; its pipe
        // then reaches EOF and it takes the crash path.
        if (opt.heartbeat_timeout_ms > 0.0 &&
            ms_since(w.last_heartbeat) > opt.heartbeat_timeout_ms) {
          w.proc->kill(SIGKILL);
          w.last_heartbeat = Clock::now();  // one kill per overrun
        }
        continue;
      }
      // EOF: the worker is exiting (it never closes stdout otherwise).
      ExitInfo ended = w.proc->wait();
      if (!ended.signaled && ended.value == kWorkerGoldenMismatchExit) {
        // Not a site's fault: every worker would refuse the same way.
        return Status::internal(
            "a worker's golden run disagreed with the supervisor's interpreted one (" +
            std::to_string(plan->golden.cycles) +
            " cycles): the compiled engine and the interpreter diverge on this design, or "
            "its simulation is nondeterministic; no site was run by that worker");
      }
      bool orderly = !w.broken && !ended.signaled &&
                     (ended.value == 0 || ended.value == kWorkerDrainedExit);
      if (w.inflight < 0 || (orderly && draining)) {
        w.complete = true;
      } else {
        // A crash, or an exit with a site still owed (a broken worker):
        // either way quarantine bounds it.
        contain_death(w, ended);
      }
    }
  }
  emit_phase(JobEvent::Kind::kPhaseEnd, "shard");

  // ---- merge: the job journal -> one site-ordered report ----
  emit_phase(JobEvent::Kind::kPhaseBegin, "merge");
  for (std::uint32_t id : quarantined) {
    sim::FaultResult r;
    r.site = plan->sites[id];
    r.outcome = sim::FaultOutcome::kWorkerCrashed;
    results.insert_or_assign(id, std::move(r));
  }
  sim::CampaignReport& report = result.report;
  report.seed = spec.seed;
  report.sites_total = plan->sites.size();
  report.golden_cycles = plan->golden.cycles;
  report.threads = 1;
  report.interrupted = result.drained;
  for (std::uint32_t id : plan->selected) {
    auto it = results.find(id);
    if (it == results.end()) {
      if (result.drained) continue;  // degraded: only journaled sites survive
      return Status::internal("site " + std::to_string(id) +
                              " was never classified -- supervisor bug");
    }
    report.results.push_back(std::move(it->second));
  }
  result.quarantined.assign(quarantined.begin(), quarantined.end());
  struct stat st{};
  if (::stat(journal_path.c_str(), &st) == 0) {
    result.journal_bytes = static_cast<std::uint64_t>(st.st_size);
  }
  result.rendered = report.render(design);
  emit_phase(JobEvent::Kind::kPhaseEnd, "merge");
  return result;
}

}  // namespace hlsav::serve
