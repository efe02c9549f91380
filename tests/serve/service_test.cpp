// End-to-end service tests: a real hlsavd daemon subprocess, jobs
// submitted through the client library, workers killed mid-sweep, and
// the byte-identity + back-pressure + graceful-shutdown contracts.
#include <gtest/gtest.h>

#include <signal.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "codegen/jit.h"
#include "common/test_util.h"
#include "pipeline/compile.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "serve/shard.h"
#include "sim/campaign.h"
#include "support/jsonl.h"
#include "support/subprocess.h"
#include "support/wal.h"

#ifndef HLSAVD_PATH
#define HLSAVD_PATH "hlsavd"
#endif
#ifndef HLSAVC_PATH
#define HLSAVC_PATH "hlsavc"
#endif

namespace hlsav::serve {
namespace {

using hlsav::testing::daemon_work_dir;
using hlsav::testing::ScopedEnv;
using hlsav::testing::temp_path;
using hlsav::testing::write_temp;
using hlsav::testing::slurp;

const char* kClampSrc = R"(
void clamp(stream_in<32> in, stream_out<32> out) {
  for (uint32 i = 0; i < 6; i++) {
    uint32 v = stream_read(in);
    uint32 y = v;
    if (y > 255) { y = 255; }
    assert(y <= 255);
    stream_write(out, y);
  }
}
)";

/// Runs hlsavc and captures stdout+stderr (the single-process campaign
/// reference the service must match byte for byte).
std::string run_hlsavc(const std::string& args) {
  std::string cmd = std::string(HLSAVC_PATH) + " " + args + " 2>/dev/null";
  std::array<char, 4096> buf{};
  std::string out;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return out;
  while (fgets(buf.data(), static_cast<int>(buf.size()), pipe) != nullptr) out += buf.data();
  pclose(pipe);
  return out;
}

/// A live hlsavd daemon for one test: spawned on construction, torn
/// down (gracefully if possible, SIGKILL as a backstop) on destruction.
struct Daemon {
  explicit Daemon(std::vector<std::string> extra_flags = {}) {
    socket = temp_path("svc_" + std::to_string(counter_++) + ".sock");
    work_dir = daemon_work_dir("svcwork_" + std::to_string(counter_));
    std::vector<std::string> argv = {HLSAVD_PATH, "serve", "--socket=" + socket,
                                     "--work-dir=" + work_dir};
    for (std::string& f : extra_flags) argv.push_back(std::move(f));
    StatusOr<Subprocess> p = Subprocess::spawn(argv, /*capture_stdout=*/false);
    EXPECT_TRUE(p.ok()) << p.status().to_string();
    if (p.ok()) proc.emplace(std::move(*p));
    // The daemon prints its listening line after binding; the socket
    // file appearing is the readiness signal.
    for (int i = 0; i < 500 && !std::filesystem::exists(socket); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(std::filesystem::exists(socket)) << "daemon never bound " << socket;
  }

  ~Daemon() {
    if (!proc.has_value()) return;
    if (!proc->poll().has_value()) {
      (void)request_shutdown(socket);
      for (int i = 0; i < 500 && !proc->poll().has_value(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    if (!proc->poll().has_value()) proc->kill(SIGKILL);
    (void)proc->wait();
  }

  /// Graceful shutdown; returns the daemon's own exit info.
  ExitInfo shutdown() {
    EXPECT_TRUE(request_shutdown(socket).ok());
    return proc->wait();
  }

  std::string socket;
  std::string work_dir;
  std::optional<Subprocess> proc;
  static int counter_;
};

int Daemon::counter_ = 0;

CampaignSpec clamp_spec(const std::string& design_path) {
  CampaignSpec spec;
  spec.design_path = design_path;
  spec.feeds = "clamp.in=1,2,3,300,5,6";
  spec.seed = 7;
  return spec;
}

TEST(Service, CrashedWorkersAreContainedAndTheReportStaysByteIdentical) {
  std::string design = write_temp("svc_clamp.c", kClampSrc);
  // Single-process reference sweep: the identical design *path* matters
  // (the report names it), so both runs use the same string.
  std::string ref = run_hlsavc("faultsim " + design +
                               " --campaign --seed=7 --feed clamp.in=1,2,3,300,5,6");
  ASSERT_NE(ref.find("Fault-injection campaign"), std::string::npos) << ref;

  Daemon d;
  CampaignSpec spec = clamp_spec(design);
  spec.workers = 2;
  spec.crash_at = {3, 7};  // two workers die by SIGKILL mid-sweep
  std::string out = temp_path("svc_crash_report.txt");
  int rc = submit_job(d.socket, spec, out, /*quiet=*/true);
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(slurp(out), ref);
}

TEST(Service, QuarantineClassifiesARepeatKillerAsWorkerCrashed) {
  std::string design = write_temp("svc_clamp_q.c", kClampSrc);
  Daemon d({"--quarantine-cap=2", "--backoff-base-ms=1", "--backoff-cap-ms=10"});
  CampaignSpec spec = clamp_spec(design);
  spec.workers = 2;
  spec.crash_at = {4};
  spec.crash_limit = 10;  // far past the cap: the site can never succeed
  std::string out = temp_path("svc_quarantine_report.txt");
  int rc = submit_job(d.socket, spec, out, /*quiet=*/true);
  EXPECT_EQ(rc, 0);
  std::string report = slurp(out);
  EXPECT_NE(report.find("worker-crashed"), std::string::npos) << report;
}

/// One Chrome-trace event line of the daemon's export, or nullopt.
struct TraceEvent {
  char ph = 0;
  int tid = 0;
  std::string name;
  long long ts = 0;
  long long dur = 0;
};

std::optional<TraceEvent> parse_trace_line(const std::string& line) {
  auto field = [&](const std::string& key) -> std::string {
    std::size_t p = line.find("\"" + key + "\": ");
    if (p == std::string::npos) return {};
    p += key.size() + 4;
    if (line[p] == '"') return line.substr(p + 1, line.find('"', p + 1) - p - 1);
    return line.substr(p, line.find_first_of(",}", p) - p);
  };
  TraceEvent e;
  std::string ph = field("ph");
  if (ph.size() != 1) return std::nullopt;
  e.ph = ph[0];
  e.name = field("name");
  std::string tid = field("tid"), ts = field("ts"), dur = field("dur");
  if (tid.empty() || ts.empty()) return std::nullopt;
  e.tid = std::stoi(tid);
  e.ts = std::stoll(ts);
  if (!dur.empty()) e.dur = std::stoll(dur);
  return e;
}

TEST(Service, StalledWorkerDoesNotHoldBackOtherSites) {
  std::string design = write_temp("svc_clamp_stall.c", kClampSrc);
  std::string ref = run_hlsavc("faultsim " + design +
                               " --campaign --seed=7 --feed clamp.in=1,2,3,300,5,6");
  ASSERT_NE(ref.find("Fault-injection campaign"), std::string::npos) << ref;

  // Site 0 stalls its worker until the 3 s heartbeat watchdog kills it.
  // The other worker must take every other site meanwhile.
  Daemon d({"--heartbeat-timeout-ms=3000", "--backoff-base-ms=1", "--backoff-cap-ms=10"});
  CampaignSpec spec = clamp_spec(design);
  spec.workers = 2;
  spec.stall_at = {0};
  std::string out = temp_path("svc_stall_report.txt");
  ASSERT_EQ(submit_job(d.socket, spec, out, /*quiet=*/true), 0);
  EXPECT_EQ(slurp(out), ref);

  StatusOr<std::string> trace = fetch_trace(d.socket, 1);
  ASSERT_TRUE(trace.ok()) << trace.status().to_string();
  std::vector<TraceEvent> sites;
  long long watchdog_ts = -1;
  std::istringstream in(*trace);
  for (std::string line; std::getline(in, line);) {
    std::optional<TraceEvent> e = parse_trace_line(line);
    if (!e.has_value() || e->tid < 10) continue;
    if (e->ph == 'i' && e->name == "respawn site s0") watchdog_ts = e->ts;
    if (e->ph == 'X' && e->name != "s0") sites.push_back(*e);
  }
  ASSERT_GE(watchdog_ts, 0) << *trace;
  ASSERT_GE(sites.size(), 4u) << *trace;
  for (const TraceEvent& e : sites) {
    EXPECT_LT(e.ts + e.dur, watchdog_ts) << e.name << " waited behind the stalled worker";
  }
}

TEST(Service, OverloadIsATypedRejectionNeverAHang) {
  std::string design = write_temp("svc_busy.c", kClampSrc);
  std::string ref = run_hlsavc("faultsim " + design +
                               " --campaign --seed=7 --feed clamp.in=1,2,3,300,5,6");
  ASSERT_NE(ref.find("Fault-injection campaign"), std::string::npos) << ref;
  // One executor, queue of one. Job 1 stalls its worker on site 0 until
  // the 3s heartbeat watchdog clears it -- a deterministic window in
  // which the executor is provably busy.
  Daemon d({"--queue-cap=1", "--jobs=1", "--workers=1", "--heartbeat-timeout-ms=3000",
            "--backoff-base-ms=1", "--backoff-cap-ms=10"});

  CampaignSpec stall = clamp_spec(design);
  stall.workers = 1;
  stall.stall_at = {0};
  CampaignSpec spec = clamp_spec(design);

  // Job 1 occupies the single executor; job 2 fills the cap-1 queue;
  // job 3 must bounce with the typed queue-full message.
  const std::string stalled = temp_path("svc_busy1.txt");
  const std::string queued = temp_path("svc_busy2.txt");
  std::thread j1([&] {
    int rc = submit_job(d.socket, stall, stalled, true);
    EXPECT_EQ(rc, 0) << rc;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  std::thread j2([&] {
    int rc = submit_job(d.socket, spec, queued, true);
    EXPECT_EQ(rc, 0) << rc;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  int rc3 = submit_job(d.socket, spec, temp_path("svc_busy3.txt"), true);
  EXPECT_EQ(rc3, 7);  // rejected: typed back-pressure, instantly

  j1.join();
  j2.join();
  // Neither the stall nor the wait in the queue changes a report byte.
  EXPECT_EQ(slurp(stalled), ref);
  EXPECT_EQ(slurp(queued), ref);
}

TEST(Service, StatusCountsAndShutdownExitsCleanly) {
  std::string design = write_temp("svc_clamp_s.c", kClampSrc);
  Daemon d;
  StatusOr<std::string> before = query_status(d.socket);
  ASSERT_TRUE(before.ok()) << before.status().to_string();
  EXPECT_NE(before->find("completed=0"), std::string::npos) << *before;

  CampaignSpec spec = clamp_spec(design);
  EXPECT_EQ(submit_job(d.socket, spec, temp_path("svc_status_report.txt"), true), 0);

  StatusOr<std::string> after = query_status(d.socket);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->find("completed=1"), std::string::npos) << *after;

  ExitInfo info = d.shutdown();
  EXPECT_TRUE(info.clean()) << info.describe();
  // A clean shutdown removes the socket: no stale file to confuse the
  // next daemon or a probing client.
  EXPECT_FALSE(std::filesystem::exists(d.socket));
}

TEST(Service, ShutdownMidJobDrainsInsteadOfDropping) {
  std::string design = write_temp("svc_busy_d.c", kClampSrc);
  // The stalled worker pins the job mid-sweep; SIGTERM-based drain
  // degrades it gracefully (the watchdog bounds how long the stalled
  // site can hold the shutdown hostage).
  Daemon d({"--workers=1", "--heartbeat-timeout-ms=2000"});
  CampaignSpec spec = clamp_spec(design);
  spec.workers = 1;
  spec.stall_at = {0};

  int rc = -1;
  std::thread job([&] { rc = submit_job(d.socket, spec, temp_path("svc_drain.txt"), true); });
  // The worker writes this token as it reaches the stalled site: from
  // then on the job is provably mid-sweep.
  const std::string stalled = d.work_dir + "/job_1/stall_0.token";
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!std::filesystem::exists(stalled) && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(std::filesystem::exists(stalled)) << "the worker never reached the stalled site";
  ExitInfo info = d.shutdown();
  job.join();
  EXPECT_TRUE(info.clean()) << info.describe();
  // Drained (6): the shutdown landed while the worker was stalled, the
  // journaled prefix was kept, and the client got a typed outcome.
  EXPECT_EQ(rc, 6) << rc;
}

ssize_t enospc_write(int, const void*, std::size_t) {
  errno = ENOSPC;
  return -1;
}

TEST(Service, SpoolWriteFailureIsATypedRejection) {
  // In-process daemon, so the WAL hooks reach its spool: the
  // write-ahead record of the job cannot land, and the client must get
  // a typed rejection (7) instead of an accept the daemon cannot keep.
  std::string design = write_temp("svc_enospc.c", kClampSrc);
  ServiceOptions sopt;
  sopt.socket_path = temp_path("svc_enospc.sock");
  sopt.work_dir = temp_path("svcwork_enospc");
  sopt.worker_binary = HLSAVD_PATH;
  StatusOr<std::unique_ptr<Service>> service = Service::start(sopt);
  ASSERT_TRUE(service.ok()) << service.status().to_string();
  Status served;
  std::thread loop([&] { served = (*service)->serve(); });

  static wal::IoHooks hooks{enospc_write, nullptr};
  wal::set_io_hooks_for_test(&hooks);
  int rc = submit_job(sopt.socket_path, clamp_spec(design), temp_path("svc_enospc.txt"), true);
  wal::set_io_hooks_for_test(nullptr);
  EXPECT_EQ(rc, 7);
  StatusOr<std::string> status = query_status(sopt.socket_path);
  ASSERT_TRUE(status.ok()) << status.status().to_string();
  EXPECT_NE(status->find("rejected=1"), std::string::npos) << *status;

  (*service)->shutdown_flag().store(true);
  loop.join();
  EXPECT_TRUE(served.ok()) << served.to_string();
}

TEST(Service, SubmittingAMissingDesignFailsTheJobNotTheDaemon) {
  Daemon d;
  CampaignSpec spec;
  spec.design_path = temp_path("svc_never_written.c");
  int rc = submit_job(d.socket, spec, temp_path("svc_missing.txt"), true);
  EXPECT_EQ(rc, 1);
  // The daemon survives the failed job and keeps serving.
  StatusOr<std::string> st = query_status(d.socket);
  ASSERT_TRUE(st.ok()) << st.status().to_string();
  EXPECT_NE(st->find("completed="), std::string::npos);
}

/// The in-process, interpreted campaign report for `spec`: what every
/// daemon job must render, whichever engine its workers ran.
std::string interpreted_report(const CampaignSpec& spec) {
  SourceManager sm;
  DiagnosticEngine diags(&sm);
  StatusOr<pipeline::Compiled> c = pipeline::compile_file(sm, diags, spec.design_path, {});
  EXPECT_TRUE(c.ok()) << diags.render();
  StatusOr<std::map<std::string, std::vector<std::uint64_t>>> feeds = parse_feed_spec(spec.feeds);
  EXPECT_TRUE(feeds.ok());
  if (!c.ok() || !feeds.ok()) return "";
  sim::CampaignOptions copt;
  copt.seed = spec.seed;
  sim::ExternRegistry externs;
  return sim::run_campaign(c->design, c->schedule, externs, *feeds, copt).render(c->design);
}

/// A counter from the daemon's metrics snapshot (-1 when absent).
long long metric(const std::string& socket, const char* name) {
  StatusOr<std::string> snap = query_metrics(socket);
  std::uint64_t v = 0;
  if (!snap.ok() || !jsonl::parse_u64(*snap, name, v)) return -1;
  return static_cast<long long>(v);
}

/// The events-log line of `event` (empty when there is none).
std::string event_line(const std::string& log, const std::string& event) {
  std::istringstream in(log);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"event\":\"" + event + "\"") != std::string::npos) return line;
  }
  return "";
}

/// An executable script at temp_path(name).
std::string write_script(const std::string& name, const std::string& body) {
  std::string path = write_temp(name, "#!/bin/sh\n" + body);
  std::filesystem::permissions(path, std::filesystem::perms::owner_all);
  return path;
}

TEST(Service, CompiledWorkersRunEverySiteWithTheInterpretedReport) {
  const std::string cc = codegen::find_compiler();
  if (cc.empty()) GTEST_SKIP() << "no host C compiler";
  std::string design = write_temp("svc_compiled.c", kClampSrc);
  CampaignSpec spec = clamp_spec(design);
  spec.workers = 2;
  const std::string ref = interpreted_report(spec);
  ASSERT_NE(ref.find("Fault-injection campaign"), std::string::npos) << ref;

  // A compiler that logs each run. Its path is part of the cache key,
  // so the cache starts cold for it.
  std::string cc_log = temp_path("svc_compiled_cc.log");
  std::string logging_cc =
      write_script("svc_compiled_cc.sh", "echo run >> '" + cc_log + "'\nexec '" + cc + "' \"$@\"\n");
  ScopedEnv use_cc("HLSAV_CC", logging_cc.c_str());
  std::string events = temp_path("svc_compiled_events.jsonl");
  Daemon d({"--events-out=" + events});
  for (const char* pass : {"cold cache", "warm cache"}) {
    std::string out = temp_path("svc_compiled_report.txt");
    ASSERT_EQ(submit_job(d.socket, spec, out, /*quiet=*/true), 0) << pass;
    EXPECT_EQ(slurp(out), ref) << pass;
    // The supervisor built the design once; no worker ran the compiler.
    EXPECT_EQ(slurp(cc_log), "run\n") << pass;
  }
  long long done = metric(d.socket, "sites_done");
  EXPECT_GT(done, 0);
  EXPECT_EQ(metric(d.socket, "sites_compiled"), done);
  EXPECT_TRUE(d.shutdown().clean());
  // No site interpreted, so the job's log line names no fallback.
  std::string completed = event_line(slurp(events), "job-completed");
  ASSERT_FALSE(completed.empty());
  EXPECT_EQ(completed.find("engine_note"), std::string::npos) << completed;
}

TEST(Service, UnusableHostCompilerLeavesWorkersInterpretingWithTheSameReport) {
  std::string design = write_temp("svc_fallback.c", kClampSrc);
  CampaignSpec spec = clamp_spec(design);
  spec.workers = 2;
  const std::string ref = interpreted_report(spec);
  ASSERT_NE(ref.find("Fault-injection campaign"), std::string::npos) << ref;

  // No compiler, and so no cache entry under its key: the supervisor's
  // build and every worker's preparation fail.
  std::string events = temp_path("svc_fallback_events.jsonl");
  std::optional<Daemon> d;
  {
    ScopedEnv no_cc("HLSAV_CC", "/nonexistent/cc");
    d.emplace(std::vector<std::string>{"--events-out=" + events});
  }
  std::string out = temp_path("svc_fallback_report.txt");
  ASSERT_EQ(submit_job(d->socket, spec, out, /*quiet=*/true), 0);
  EXPECT_EQ(slurp(out), ref);
  EXPECT_GT(metric(d->socket, "sites_done"), 0);
  EXPECT_EQ(metric(d->socket, "sites_compiled"), 0);
  ExitInfo info = d->shutdown();
  EXPECT_TRUE(info.clean()) << info.describe();
  // The job's log line says why its sites interpreted: the failed
  // preparation, not the simulator's "no compiled design attached".
  std::string completed = event_line(slurp(events), "job-completed");
  EXPECT_NE(completed.find("\"engine_note\":\"compiled engine unavailable ("), std::string::npos)
      << completed;
}

TEST(Service, AWorkerGoldenMismatchFailsTheJobInsteadOfBlamingSites) {
  std::string design = write_temp("svc_golden.c", kClampSrc);
  SupervisorOptions sopt;
  // Stands in for a worker whose golden run disagrees with the
  // supervisor's.
  sopt.worker_binary =
      write_script("svc_golden_worker.sh", "exit " + std::to_string(kWorkerGoldenMismatchExit) + "\n");
  sopt.job_dir = daemon_work_dir("svc_golden_job");
  ASSERT_TRUE(std::filesystem::create_directories(sopt.job_dir));
  sopt.workers = 2;
  std::vector<JobEvent::Kind> kinds;
  sopt.event_sink = [&](JobEvent e) { kinds.push_back(e.kind); };
  WorkerPool pool;
  StatusOr<SupervisedResult> r = run_sharded_campaign(clamp_spec(design), sopt, pool);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("golden run disagreed with the supervisor's interpreted one"),
            std::string::npos)
      << r.status().to_string();
  // No site was blamed, quarantined or retried.
  for (JobEvent::Kind k : kinds) {
    EXPECT_NE(k, JobEvent::Kind::kWorkerCrashed);
    EXPECT_NE(k, JobEvent::Kind::kQuarantined);
  }
}

/// The fields of /proc/<pid>/stat after the command name: state first,
/// then the parent pid. Empty once the process is gone.
std::string proc_stat_fields(pid_t pid) {
  std::string stat = slurp("/proc/" + std::to_string(pid) + "/stat");
  std::size_t close = stat.rfind(") ");
  return close == std::string::npos ? "" : stat.substr(close + 2);
}

/// The live `hlsavd worker` children of `parent`.
std::vector<pid_t> worker_pids(pid_t parent) {
  std::vector<pid_t> pids;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator("/proc", ec)) {
    const std::string name = entry.path().filename().string();
    if (name.find_first_not_of("0123456789") != std::string::npos) continue;
    const pid_t pid = std::stoi(name);
    std::istringstream fields(proc_stat_fields(pid));
    char state = 0;
    pid_t ppid = 0;
    if (!(fields >> state >> ppid) || ppid != parent || state == 'Z') continue;
    const std::string cmdline = slurp("/proc/" + name + "/cmdline");
    if (cmdline.find(std::string("\0worker\0", 8)) != std::string::npos) pids.push_back(pid);
  }
  return pids;
}

/// True once `pid` has exited (a zombie counts: its parent has not
/// reaped it yet), waiting up to 10 s for it.
bool await_exit(pid_t pid) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    const std::string fields = proc_stat_fields(pid);
    if (fields.empty() || fields[0] == 'Z') return true;
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

TEST(Service, RepeatedJobReusesParkedWorkers) {
  const std::string args = " --campaign --seed=7 --feed clamp.in=1,2,3,300,5,6";
  std::string design = write_temp("svc_reuse.c", kClampSrc);
  const std::string ref = run_hlsavc("faultsim " + design + args);
  ASSERT_NE(ref.find("Fault-injection campaign"), std::string::npos) << ref;

  Daemon d({"--backoff-base-ms=1", "--backoff-cap-ms=10"});
  CampaignSpec spec = clamp_spec(design);
  spec.workers = 2;
  const std::string out = temp_path("svc_reuse_report.txt");
  for (int job = 1; job <= 3; ++job) {
    ASSERT_EQ(submit_job(d.socket, spec, out, /*quiet=*/true), 0) << "job " << job;
    EXPECT_EQ(slurp(out), ref) << "job " << job;
  }
  // Job 1 spawned both workers; jobs 2 and 3 ran on them.
  EXPECT_EQ(metric(d.socket, "workers_spawned"), 2);
  EXPECT_EQ(metric(d.socket, "workers_reused"), 4);
  // Each worker's track marks how it joined the job.
  StatusOr<std::string> trace = fetch_trace(d.socket, 2);
  ASSERT_TRUE(trace.ok()) << trace.status().to_string();
  EXPECT_NE(trace->find("\"worker reused\""), std::string::npos) << *trace;
  EXPECT_EQ(trace->find("\"worker spawned\""), std::string::npos) << *trace;

  // The same path with other bytes: the golden run keeps its 33 cycles,
  // so every worker flag is unchanged and only the design hash tells the
  // parked workers (which compiled the old bytes) apart.
  std::string clamp100 = kClampSrc;
  for (std::size_t at; (at = clamp100.find("255")) != std::string::npos;) {
    clamp100.replace(at, 3, "100");
  }
  ASSERT_EQ(write_temp("svc_reuse.c", clamp100), design);
  const std::string ref100 = run_hlsavc("faultsim " + design + args);
  ASSERT_NE(ref100.find("Fault-injection campaign"), std::string::npos) << ref100;
  ASSERT_NE(ref100, ref);
  ASSERT_EQ(submit_job(d.socket, spec, out, /*quiet=*/true), 0);
  EXPECT_EQ(slurp(out), ref100);
  EXPECT_EQ(metric(d.socket, "workers_spawned"), 4);
  EXPECT_EQ(metric(d.socket, "workers_reused"), 4);

  // A test fault schedule takes no parked worker and parks none: its
  // crash still respawns, and the clean job after it spawns afresh.
  CampaignSpec crash = spec;
  crash.crash_at = {3};
  ASSERT_EQ(submit_job(d.socket, crash, out, /*quiet=*/true), 0);
  EXPECT_EQ(slurp(out), ref100);
  EXPECT_EQ(metric(d.socket, "worker_respawns"), 1);
  // Two fresh workers, plus the respawn unless the other worker emptied
  // the queue within its backoff.
  const long long spawned = metric(d.socket, "workers_spawned");
  EXPECT_GE(spawned, 4 + 2);
  ASSERT_EQ(submit_job(d.socket, spec, out, /*quiet=*/true), 0);
  EXPECT_EQ(slurp(out), ref100);
  EXPECT_EQ(metric(d.socket, "workers_spawned"), spawned + 2);
  EXPECT_EQ(metric(d.socket, "workers_reused"), 4);
  EXPECT_TRUE(d.shutdown().clean());
}

TEST(Service, ParkedWorkerKilledWhileIdleIsReplacedNotBlamed) {
  std::string design = write_temp("svc_reuse_kill.c", kClampSrc);
  const std::string ref =
      run_hlsavc("faultsim " + design + " --campaign --seed=7 --feed clamp.in=1,2,3,300,5,6");
  ASSERT_NE(ref.find("Fault-injection campaign"), std::string::npos) << ref;

  Daemon d({"--jobs=1", "--backoff-base-ms=1", "--backoff-cap-ms=10"});
  CampaignSpec spec = clamp_spec(design);
  spec.workers = 2;
  const std::string out = temp_path("svc_reuse_kill_report.txt");
  ASSERT_EQ(submit_job(d.socket, spec, out, /*quiet=*/true), 0);
  EXPECT_EQ(slurp(out), ref);

  std::vector<pid_t> parked = worker_pids(d.proc->pid());
  ASSERT_EQ(parked.size(), 2u) << "the job's two workers are parked";
  const long long respawns = metric(d.socket, "worker_respawns");
  const long long spawned = metric(d.socket, "workers_spawned");
  ASSERT_EQ(::kill(parked[0], SIGKILL), 0);
  ASSERT_TRUE(await_exit(parked[0]));

  ASSERT_EQ(submit_job(d.socket, spec, out, /*quiet=*/true), 0);
  EXPECT_EQ(slurp(out), ref);
  // The dead worker owed no site: it was dropped and replaced, and no
  // site was blamed.
  EXPECT_EQ(metric(d.socket, "worker_respawns"), respawns);
  EXPECT_EQ(metric(d.socket, "workers_spawned"), spawned + 1);
  EXPECT_EQ(metric(d.socket, "workers_reused"), 1);

  std::vector<pid_t> seen = worker_pids(d.proc->pid());
  EXPECT_EQ(seen.size(), 2u);
  seen.insert(seen.end(), parked.begin(), parked.end());
  ExitInfo info = d.shutdown();
  EXPECT_TRUE(info.clean()) << info.describe();
  // Shutdown retires the parked workers: none outlives the daemon.
  for (pid_t pid : seen) {
    EXPECT_EQ(proc_stat_fields(pid), "") << "worker " << pid << " outlived the daemon";
  }
}

}  // namespace
}  // namespace hlsav::serve
