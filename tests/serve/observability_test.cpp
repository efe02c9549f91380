// End-to-end observability tests against a real hlsavd daemon:
// concurrent watchers (including a deliberately slow one) that must
// never perturb the campaign, byte-identical report fan-out, Chrome
// trace export, the metrics snapshot, and the append-only event log.
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/daemon.h"
#include "metrics/chrometrace.h"

namespace hlsav::serve {
namespace {

using hlsav::testing::clamp_reference;
using hlsav::testing::clamp_spec;
using hlsav::testing::Daemon;
using hlsav::testing::kClampSrc;
using hlsav::testing::ScopedEnv;
using hlsav::testing::slurp;
using hlsav::testing::temp_path;
using hlsav::testing::write_temp;

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
  std::string ref = clamp_reference(design);
  ASSERT_NE(ref.find("Fault-injection campaign"), std::string::npos) << ref;
  std::string events = temp_path("obs_watch_events.jsonl");
  Daemon d({"--backoff-base-ms=1", "--backoff-cap-ms=10", "--events-out=" + events});
  CampaignSpec spec = clamp_spec(design);
  spec.workers = 2;
  spec.crash_at = {3};  // each job loses a worker mid-sweep

  // Watcher-less run: job 1.
  std::string ref_out = temp_path("obs_ref.txt");
  ASSERT_EQ(submit_job(d.socket, spec, ref_out, /*quiet=*/true), 0);
  EXPECT_EQ(slurp(ref_out), ref);

  // Job 2 runs with eight concurrent watchers attached before it is
  // even submitted (wait_ms lets them win the race), the last of which
  // deliberately stops reading, once subscribed, for longer than the
  // whole campaign.
  constexpr std::size_t kWatchers = 8;
  std::vector<std::string> watch_outs;
  for (std::size_t i = 0; i < kWatchers; ++i) {
    watch_outs.push_back(temp_path("obs_w" + std::to_string(i) + ".txt"));
  }
  std::vector<int> watch_rcs(kWatchers, -1);
  std::vector<std::thread> watchers;
  for (std::size_t i = 0; i < kWatchers; ++i) {
    watchers.emplace_back([&, i] {
      WatchOptions wopt;
      wopt.wait_ms = 10'000;
      wopt.quiet = true;
      wopt.out_path = watch_outs[i];
      if (i == kWatchers - 1) wopt.stall_reads_ms = 4000;  // the slow reader
      watch_rcs[i] = watch_job(d.socket, 2, wopt);
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
  for (std::size_t i = 0; i < kWatchers; ++i) {
    EXPECT_EQ(watch_rcs[i], 0) << "watcher " << i;
    EXPECT_EQ(slurp(watch_outs[i]), ref) << "watcher " << i;
  }
  // Each watcher subscribed once: a watch of a job not yet submitted is
  // rejected, not counted.
  StatusOr<std::string> snap = query_metrics(d.socket);
  ASSERT_TRUE(snap.ok()) << snap.status().to_string();
  EXPECT_EQ(json_int(*snap, "watch_subscribers"), static_cast<long long>(kWatchers));
  // Every watcher, the slow one included, subscribed while job 2 ran:
  // all its watch-subscribed events come before its job-completed.
  std::istringstream log(slurp(events));
  std::size_t subscribed = 0;
  bool completed = false;
  for (std::string line; std::getline(log, line);) {
    if (json_int(line, "job") != 2) continue;
    if (line.find("\"event\":\"watch-subscribed\"") != std::string::npos) {
      EXPECT_FALSE(completed) << "a watcher subscribed after job 2 completed: " << line;
      ++subscribed;
    }
    if (line.find("\"event\":\"job-completed\"") != std::string::npos) completed = true;
  }
  EXPECT_TRUE(completed);
  EXPECT_EQ(subscribed, kWatchers);
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
    Daemon d({"--events-out=" + events, "--quarantine-cap=2", "--backoff-base-ms=1",
              "--backoff-cap-ms=10"});
    CampaignSpec spec = clamp_spec(design);
    ASSERT_EQ(submit_job(d.socket, spec, temp_path("obs_m1.txt"), /*quiet=*/true), 0);
    // Site 3 kills every worker that runs it, so it ends quarantined.
    CampaignSpec crash = clamp_spec(design);
    crash.workers = 2;
    crash.crash_at = {3};
    crash.crash_limit = 10;
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
    EXPECT_EQ(json_int(*snap, "sites_quarantined"), 1);
    EXPECT_GE(json_int(*snap, "sites_done"), 1);
    EXPECT_GT(json_int(*snap, "journal_bytes"), 0);
    EXPECT_GE(json_int(*snap, "watch_subscribers"), 1);
    EXPECT_GT(json_int(*snap, "watch_frames_sent"), 0);
    EXPECT_GE(json_int(*snap, "events_logged"), 1);

    // Each counter is a fold of the flight recorder while it is live:
    // it equals the number of lines its event left in the log.
    std::string text = slurp(events);
    for (auto [counter, event] : {std::pair{"jobs_submitted", "job-submitted"},
                                  {"jobs_completed", "job-completed"},
                                  {"worker_respawns", "worker-crashed"},
                                  {"sites_quarantined", "site-quarantined"},
                                  {"watch_subscribers", "watch-subscribed"}}) {
      EXPECT_EQ(count_events(text, event), static_cast<std::size_t>(json_int(*snap, counter)))
          << counter;
    }
    EXPECT_TRUE(d.shutdown().clean());
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
  // One malloc arena in the daemon. Otherwise a watcher thread that
  // starts before the last one has let go of its arena gets a new
  // 64 MiB one: VmSize growth that is not a leaked stack.
  ScopedEnv one_arena("MALLOC_ARENA_MAX", "1");
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

TEST(Observability, StatusReportsQueuedCountAndWorkerTallies) {
  std::string design = write_temp("obs_status.c", kClampSrc);
  // One executor so queued jobs are observable; quick respawns.
  Daemon d({"--jobs=1", "--workers=1", "--heartbeat-timeout-ms=1500", "--backoff-base-ms=1",
            "--backoff-cap-ms=10"});

  // A crashing job leaves per-worker respawn tallies behind.
  CampaignSpec crash = clamp_spec(design);
  crash.workers = 1;
  crash.crash_at = {3};
  ASSERT_EQ(submit_job(d.socket, crash, temp_path("obs_s1.txt"), /*quiet=*/true), 0);

  // Pin the executor with a stalled job, then queue two more behind it.
  CampaignSpec stall = clamp_spec(design);
  stall.workers = 1;
  stall.stall_at = {0};
  int rc1 = -1, rc2 = -1, rc3 = -1;
  std::thread j1([&] { rc1 = submit_job(d.socket, stall, temp_path("obs_s2.txt"), true); });
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  CampaignSpec queued = clamp_spec(design);
  std::thread j2([&] { rc2 = submit_job(d.socket, queued, temp_path("obs_s3.txt"), true); });
  std::thread j3([&] { rc3 = submit_job(d.socket, queued, temp_path("obs_s4.txt"), true); });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  StatusOr<std::string> status = query_status(d.socket);
  ASSERT_TRUE(status.ok()) << status.status().to_string();
  // Historic first line intact, then the per-worker tallies.
  EXPECT_NE(status->find("queued=2 running=1"), std::string::npos) << *status;
  EXPECT_NE(status->find("worker 0: respawns="), std::string::npos) << *status;

  j1.join();
  j2.join();
  j3.join();
  EXPECT_EQ(rc1, 0);
  EXPECT_EQ(rc2, 0);
  EXPECT_EQ(rc3, 0);
}

}  // namespace
}  // namespace hlsav::serve
