// End-to-end observability tests against a real hlsavd daemon:
// concurrent watchers (including a deliberately slow one) that must
// never perturb the campaign, byte-identical report fan-out, Chrome
// trace export, the metrics snapshot, and the append-only event log.
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "metrics/chrometrace.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "support/subprocess.h"

#ifndef HLSAVD_PATH
#define HLSAVD_PATH "hlsavd"
#endif

namespace hlsav::serve {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + std::to_string(::getpid()) + "_obs_" + name;
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

/// A live hlsavd daemon for one test (same shape as service_test's).
struct Daemon {
  explicit Daemon(std::vector<std::string> extra_flags = {}) {
    socket = temp_path("obs_" + std::to_string(counter_++) + ".sock");
    work_dir = temp_path("obswork_" + std::to_string(counter_));
    std::vector<std::string> argv = {HLSAVD_PATH, "serve", "--socket=" + socket,
                                     "--work-dir=" + work_dir};
    for (std::string& f : extra_flags) argv.push_back(std::move(f));
    StatusOr<Subprocess> p = Subprocess::spawn(argv, /*capture_stdout=*/false);
    EXPECT_TRUE(p.ok()) << p.status().to_string();
    if (p.ok()) proc.emplace(std::move(*p));
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

/// First integer value of `key` in a flat-ish JSON string ("key": N or
/// "key":N), or -1 when absent.
long long json_int(const std::string& text, const std::string& key) {
  std::size_t pos = text.find("\"" + key + "\":");
  if (pos == std::string::npos) return -1;
  pos += key.size() + 3;
  while (pos < text.size() && text[pos] == ' ') ++pos;
  long long v = 0;
  bool any = false;
  while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
    v = v * 10 + (text[pos] - '0');
    ++pos;
    any = true;
  }
  return any ? v : -1;
}

std::size_t count_events(const std::string& jsonl, const std::string& event) {
  std::istringstream in(jsonl);
  std::string line;
  std::size_t n = 0;
  std::string needle = "\"event\":\"" + event + "\"";
  while (std::getline(in, line)) {
    if (line.find(needle) != std::string::npos) ++n;
  }
  return n;
}

TEST(Observability, ConcurrentWatchersIncludingASlowOneGetByteIdenticalReports) {
  std::string design = write_temp("obs_clamp.c", kClampSrc);
  Daemon d;
  CampaignSpec spec = clamp_spec(design);
  spec.workers = 2;

  // Watcher-less reference run: job 1.
  std::string ref_out = temp_path("obs_ref.txt");
  ASSERT_EQ(submit_job(d.socket, spec, ref_out, /*quiet=*/true), 0);
  std::string ref = slurp(ref_out);
  ASSERT_NE(ref.find("Fault-injection campaign"), std::string::npos) << ref;

  // Job 2 runs with three concurrent watchers attached before it is
  // even submitted (wait_ms lets them win the race), one of which
  // deliberately refuses to read for longer than the whole campaign.
  std::vector<std::string> watch_outs = {temp_path("obs_w0.txt"), temp_path("obs_w1.txt"),
                                         temp_path("obs_w2.txt")};
  std::vector<int> watch_rcs(3, -1);
  std::vector<std::thread> watchers;
  for (int i = 0; i < 3; ++i) {
    watchers.emplace_back([&, i] {
      WatchOptions wopt;
      wopt.wait_ms = 10'000;
      wopt.quiet = true;
      wopt.out_path = watch_outs[static_cast<std::size_t>(i)];
      if (i == 2) wopt.stall_reads_ms = 4000;  // the slow reader
      watch_rcs[static_cast<std::size_t>(i)] = watch_job(d.socket, 2, wopt);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::string out = temp_path("obs_watched.txt");
  auto t0 = std::chrono::steady_clock::now();
  ASSERT_EQ(submit_job(d.socket, spec, out, /*quiet=*/true), 0);
  double campaign_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  for (std::thread& t : watchers) t.join();

  // The slow watcher (4s stall) never stalled the campaign itself.
  EXPECT_LT(campaign_ms, 3500.0);
  // The watched run's report is byte-identical to the watcher-less one,
  // and every watcher -- slow reader included -- got those same bytes.
  EXPECT_EQ(slurp(out), ref);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(watch_rcs[static_cast<std::size_t>(i)], 0) << "watcher " << i;
    EXPECT_EQ(slurp(watch_outs[static_cast<std::size_t>(i)]), ref) << "watcher " << i;
  }
}

TEST(Observability, LateWatcherOfAFinishedJobReplaysSnapshotAndReport) {
  std::string design = write_temp("obs_late.c", kClampSrc);
  Daemon d;
  std::string out = temp_path("obs_late_ref.txt");
  ASSERT_EQ(submit_job(d.socket, clamp_spec(design), out, /*quiet=*/true), 0);

  WatchOptions wopt;
  wopt.quiet = true;
  wopt.out_path = temp_path("obs_late_watch.txt");
  EXPECT_EQ(watch_job(d.socket, 1, wopt), 0);
  EXPECT_EQ(slurp(wopt.out_path), slurp(out));

  // A job id the daemon never saw stays a typed failure.
  WatchOptions missing;
  missing.quiet = true;
  missing.out_path = temp_path("obs_late_missing.txt");
  EXPECT_EQ(watch_job(d.socket, 99, missing), 1);
}

TEST(Observability, TraceExportValidatesAndCoversTheJobLifecycle) {
  std::string design = write_temp("obs_trace.c", kClampSrc);
  Daemon d({"--backoff-base-ms=1", "--backoff-cap-ms=10"});
  CampaignSpec spec = clamp_spec(design);
  spec.workers = 2;
  spec.crash_at = {3};  // one worker dies mid-sweep: a respawn must trace
  ASSERT_EQ(submit_job(d.socket, spec, temp_path("obs_trace_report.txt"), /*quiet=*/true), 0);

  StatusOr<std::string> trace = fetch_trace(d.socket, 1);
  ASSERT_TRUE(trace.ok()) << trace.status().to_string();
  metrics::ChromeTraceCheck chk = metrics::validate_chrome_trace(*trace);
  EXPECT_TRUE(chk.ok) << chk.error;
  EXPECT_GT(chk.events, 5u);
  // The lifecycle is fully spanned: submit instant, queued/run spans,
  // compile -> shard -> merge phases, and the crash's respawn marker.
  for (const char* name : {"\"submit\"", "\"queued\"", "\"run\"", "\"compile\"", "\"shard\"",
                           "\"merge\"", "respawn site s3"}) {
    EXPECT_NE(trace->find(name), std::string::npos) << "missing " << name;
  }

  // job 0 = the fleet view; unknown jobs are typed rejections.
  StatusOr<std::string> fleet = fetch_trace(d.socket, 0);
  ASSERT_TRUE(fleet.ok());
  EXPECT_TRUE(metrics::validate_chrome_trace(*fleet).ok);
  EXPECT_FALSE(fetch_trace(d.socket, 42).ok());
}

TEST(Observability, MetricsSnapshotReconcilesWithTheEventLog) {
  std::string design = write_temp("obs_metrics.c", kClampSrc);
  std::string events = temp_path("obs_events.jsonl");
  {
    Daemon d({"--events-out=" + events, "--backoff-base-ms=1", "--backoff-cap-ms=10"});
    CampaignSpec spec = clamp_spec(design);
    ASSERT_EQ(submit_job(d.socket, spec, temp_path("obs_m1.txt"), /*quiet=*/true), 0);
    CampaignSpec crash = clamp_spec(design);
    crash.workers = 2;
    crash.crash_at = {3};
    ASSERT_EQ(submit_job(d.socket, crash, temp_path("obs_m2.txt"), /*quiet=*/true), 0);

    WatchOptions wopt;
    wopt.quiet = true;
    wopt.out_path = temp_path("obs_m_watch.txt");
    ASSERT_EQ(watch_job(d.socket, 2, wopt), 0);

    StatusOr<std::string> snap = query_metrics(d.socket);
    ASSERT_TRUE(snap.ok()) << snap.status().to_string();
    EXPECT_EQ(json_int(*snap, "jobs_submitted"), 2);
    EXPECT_EQ(json_int(*snap, "jobs_completed"), 2);
    EXPECT_EQ(json_int(*snap, "jobs_failed"), 0);
    EXPECT_GE(json_int(*snap, "worker_respawns"), 1);
    EXPECT_GE(json_int(*snap, "sites_done"), 1);
    EXPECT_GT(json_int(*snap, "journal_bytes"), 0);
    EXPECT_GE(json_int(*snap, "watch_subscribers"), 1);
    EXPECT_GT(json_int(*snap, "watch_frames_sent"), 0);
    EXPECT_GE(json_int(*snap, "events_logged"), 1);

    // The counters agree with the flight recorder while it is live.
    std::string text = slurp(events);
    EXPECT_EQ(count_events(text, "job-submitted"),
              static_cast<std::size_t>(json_int(*snap, "jobs_submitted")));
    EXPECT_EQ(count_events(text, "job-completed"),
              static_cast<std::size_t>(json_int(*snap, "jobs_completed")));
    EXPECT_EQ(count_events(text, "worker-crashed"),
              static_cast<std::size_t>(json_int(*snap, "worker_respawns")));
  }
  // Daemon gone: the log ends with daemon-stop and seq stays monotonic.
  std::string text = slurp(events);
  EXPECT_EQ(count_events(text, "daemon-start"), 1u);
  EXPECT_EQ(count_events(text, "daemon-stop"), 1u);
  std::istringstream in(text);
  std::string line;
  long long prev_seq = 0;
  while (std::getline(in, line)) {
    long long seq = json_int(line, "seq");
    EXPECT_EQ(seq, prev_seq + 1) << line;
    prev_seq = seq;
  }
  EXPECT_GE(prev_seq, 6);
}

/// VmSize of `pid` in kB (its whole virtual mapping), or -1.
long vm_size_kb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stol(line.substr(7));
  }
  return -1;
}

TEST(Observability, FinishedWatcherThreadsAreReaped) {
  // Every watch runs on its own daemon thread; one that has exited but
  // was never joined keeps its stack mapped, so a daemon serving many
  // watches would grow without bound.
  std::string design = write_temp("obs_reap.c", kClampSrc);
  Daemon d;
  ASSERT_EQ(submit_job(d.socket, clamp_spec(design), temp_path("obs_reap.txt"), true), 0);
  WatchOptions wopt;
  wopt.quiet = true;
  wopt.out_path = temp_path("obs_reap_watch.txt");
  long before = -1;
  for (int i = 0; i < 30; ++i) {
    ASSERT_EQ(watch_job(d.socket, 1, wopt), 0) << "watch " << i;
    if (i == 4) before = vm_size_kb(d.proc->pid());
  }
  long after = vm_size_kb(d.proc->pid());
  ASSERT_GT(before, 0);
  // 25 leaked watcher stacks would add ~200 MB; allow a couple of live
  // threads' worth of slack.
  EXPECT_LT(after - before, 20 * 1024) << "VmSize " << before << " kB -> " << after << " kB";
}

TEST(Observability, StatusReportsQueueDepthsAndWorkerTallies) {
  std::string design = write_temp("obs_status.c", kClampSrc);
  // One executor so queued jobs are observable; quick respawns.
  Daemon d({"--jobs=1", "--workers=1", "--heartbeat-timeout-ms=1500", "--backoff-base-ms=1",
            "--backoff-cap-ms=10"});

  // A crashing job leaves per-worker respawn tallies behind.
  CampaignSpec crash = clamp_spec(design);
  crash.workers = 1;
  crash.crash_at = {3};
  ASSERT_EQ(submit_job(d.socket, crash, temp_path("obs_s1.txt"), /*quiet=*/true), 0);

  // Pin the executor with a stalled job, then queue two more at
  // distinct priorities so the per-priority depths are visible.
  CampaignSpec stall = clamp_spec(design);
  stall.workers = 1;
  stall.stall_at = {0};
  int rc1 = -1, rc2 = -1, rc3 = -1;
  std::thread j1([&] { rc1 = submit_job(d.socket, stall, temp_path("obs_s2.txt"), true); });
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  CampaignSpec queued_hi = clamp_spec(design);
  queued_hi.priority = 5;
  CampaignSpec queued_lo = clamp_spec(design);
  queued_lo.priority = -1;
  std::thread j2([&] { rc2 = submit_job(d.socket, queued_hi, temp_path("obs_s3.txt"), true); });
  std::thread j3([&] { rc3 = submit_job(d.socket, queued_lo, temp_path("obs_s4.txt"), true); });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  StatusOr<std::string> status = query_status(d.socket);
  ASSERT_TRUE(status.ok()) << status.status().to_string();
  // Historic first line intact, then the new depth/tally detail.
  EXPECT_NE(status->find("queued=2"), std::string::npos) << *status;
  EXPECT_NE(status->find("priority 5: depth 1"), std::string::npos) << *status;
  EXPECT_NE(status->find("priority -1: depth 1"), std::string::npos) << *status;
  EXPECT_NE(status->find("respawns="), std::string::npos) << *status;

  j1.join();
  j2.join();
  j3.join();
  EXPECT_EQ(rc1, 0);
  EXPECT_EQ(rc2, 0);
  EXPECT_EQ(rc3, 0);
}

}  // namespace
}  // namespace hlsav::serve
