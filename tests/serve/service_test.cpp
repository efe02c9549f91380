// End-to-end service tests: a real hlsavd daemon subprocess, jobs
// submitted through the client library, workers killed mid-sweep, and
// the byte-identity + back-pressure + graceful-shutdown contracts.
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/service.h"
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

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + std::to_string(::getpid()) + "_" + name;
}

std::string write_temp(const std::string& name, const std::string& contents) {
  std::string path = temp_path(name);
  std::ofstream out(path);
  out << contents;
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

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
    work_dir = temp_path("svcwork_" + std::to_string(counter_));
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
  std::thread j1([&] {
    int rc = submit_job(d.socket, stall, temp_path("svc_busy1.txt"), true);
    EXPECT_EQ(rc, 0) << rc;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  std::thread j2([&] {
    int rc = submit_job(d.socket, spec, temp_path("svc_busy2.txt"), true);
    EXPECT_EQ(rc, 0) << rc;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  int rc3 = submit_job(d.socket, spec, temp_path("svc_busy3.txt"), true);
  EXPECT_EQ(rc3, 7);  // rejected: typed back-pressure, instantly

  j1.join();
  j2.join();
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
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
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

}  // namespace
}  // namespace hlsav::serve
