// Daemon crash recovery end-to-end: a real hlsavd killed by -9 at
// every interesting phase of a job's life, restarted on the same
// socket/work/spool dirs, and the idempotent-resubmit contract -- the
// retried submit must yield a report byte-identical to an uninterrupted
// single-process run, and a duplicate key must never double-run.
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.h"
#include "serve/protocol.h"
#include "support/subprocess.h"

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

CampaignSpec clamp_spec(const std::string& design_path) {
  CampaignSpec spec;
  spec.design_path = design_path;
  spec.feeds = "clamp.in=1,2,3,300,5,6";
  spec.seed = 7;
  return spec;
}

/// A daemon meant to die and come back: fixed socket/work/spool paths
/// so a restart resumes the same state. Readiness is a status round
/// trip, never the socket file -- a stale socket survives kill -9.
struct CrashDaemon {
  explicit CrashDaemon(const std::string& tag, std::vector<std::string> extra_flags = {})
      : flags(std::move(extra_flags)) {
    socket = temp_path("rec_" + tag + ".sock");
    work_dir = temp_path("recwork_" + tag);
    start();
  }

  void start() {
    std::vector<std::string> argv = {HLSAVD_PATH, "serve", "--socket=" + socket,
                                     "--work-dir=" + work_dir};
    for (const std::string& f : flags) argv.push_back(f);
    StatusOr<Subprocess> p = Subprocess::spawn(argv, /*capture_stdout=*/false);
    EXPECT_TRUE(p.ok()) << p.status().to_string();
    if (p.ok()) proc.emplace(std::move(*p));
    bool ready = false;
    for (int i = 0; i < 1000 && !ready; ++i) {
      ready = query_status(socket).ok();
      if (!ready) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(ready) << "daemon never answered status on " << socket;
  }

  /// Blocks until the daemon's self-inflicted SIGKILL lands.
  ExitInfo wait_killed() {
    for (int i = 0; i < 3000 && !proc->poll().has_value(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(proc->poll().has_value()) << "daemon outlived its --die-at phase";
    if (!proc->poll().has_value()) proc->kill(SIGKILL);
    return proc->wait();
  }

  /// New incarnation, identical flags: the durable die-at token makes
  /// it immune to the phase that killed its predecessor.
  void restart() {
    (void)proc->wait();
    start();
  }

  ~CrashDaemon() {
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
  std::vector<std::string> flags;
  std::optional<Subprocess> proc;
};

/// The core property: kill -9 at `phase`, restart, blindly resubmit the
/// same idempotency key with --retry semantics, and the report must be
/// byte-identical to the uninterrupted single-process reference.
void crash_and_recover(const std::string& phase, bool job_spooled_before_death) {
  std::string design = write_temp("rec_clamp_" + phase + ".c", kClampSrc);
  std::string ref =
      run_hlsavc("faultsim " + design + " --campaign --seed=7 --feed clamp.in=1,2,3,300,5,6");
  ASSERT_NE(ref.find("Fault-injection campaign"), std::string::npos) << ref;

  CrashDaemon d("phase_" + phase,
                {"--die-at=" + phase, "--backoff-base-ms=1", "--backoff-cap-ms=10"});
  CampaignSpec spec = clamp_spec(design);
  spec.key = "crash-" + phase;

  SubmitOptions once;
  once.quiet = true;
  once.out_path = temp_path("rec_first_" + phase + ".txt");
  int rc1 = submit_job(d.socket, spec, once);
  EXPECT_NE(rc1, 0) << "the daemon was supposed to die under this submit";

  ExitInfo death = d.wait_killed();
  EXPECT_TRUE(death.signaled) << death.describe();
  EXPECT_EQ(death.value, SIGKILL) << death.describe();

  d.restart();

  SubmitOptions retry;
  retry.quiet = true;
  retry.retries = 5;
  retry.retry_base_ms = 20;
  retry.retry_cap_ms = 200;
  retry.out_path = temp_path("rec_retry_" + phase + ".txt");
  int rc2 = submit_job(d.socket, spec, retry);
  EXPECT_EQ(rc2, 0);
  EXPECT_EQ(slurp(retry.out_path), ref);

  StatusOr<std::string> status = query_status(d.socket);
  ASSERT_TRUE(status.ok()) << status.status().to_string();
  EXPECT_NE(status->find("incarnation"), std::string::npos) << *status;
  if (job_spooled_before_death) {
    EXPECT_NE(status->find("recovered 1 job(s) at boot"), std::string::npos) << *status;
  }
  EXPECT_TRUE(std::filesystem::exists(d.work_dir + "/spool"));
}

TEST(Recovery, DieAtAcceptThenRetriedSubmitMatchesReference) {
  // Death before the spool write: nothing to recover, the retry simply
  // runs the job fresh under the same key.
  crash_and_recover("accept", /*job_spooled_before_death=*/false);
}

TEST(Recovery, DieAtSpooledThenRestartReAdoptsAndMatchesReference) {
  crash_and_recover("spooled", /*job_spooled_before_death=*/true);
}

TEST(Recovery, DieAtShardSpawnedThenRestartResumesShardsByteIdentically) {
  crash_and_recover("shard-spawned", /*job_spooled_before_death=*/true);
}

TEST(Recovery, DieAtPreMergeThenRestartReplaysJournalsByteIdentically) {
  crash_and_recover("pre-merge", /*job_spooled_before_death=*/true);
}

TEST(Recovery, DieAtPreDoneThenRestartStillYieldsTheExactReport) {
  crash_and_recover("pre-done", /*job_spooled_before_death=*/true);
}

TEST(Recovery, DuplicateSubmitNeverDoubleRunsAndReplaysTheReport) {
  std::string design = write_temp("rec_dup.c", kClampSrc);
  std::string ref =
      run_hlsavc("faultsim " + design + " --campaign --seed=7 --feed clamp.in=1,2,3,300,5,6");
  ASSERT_NE(ref.find("Fault-injection campaign"), std::string::npos) << ref;

  CrashDaemon d("dup");
  CampaignSpec spec = clamp_spec(design);
  spec.key = "dup-key";

  SubmitOptions opt;
  opt.quiet = true;
  opt.out_path = temp_path("rec_dup1.txt");
  EXPECT_EQ(submit_job(d.socket, spec, opt), 0);
  EXPECT_EQ(slurp(opt.out_path), ref);

  opt.out_path = temp_path("rec_dup2.txt");
  EXPECT_EQ(submit_job(d.socket, spec, opt), 0);
  EXPECT_EQ(slurp(opt.out_path), ref);

  // One completion, not two: the second submit was a replay.
  StatusOr<std::string> status = query_status(d.socket);
  ASSERT_TRUE(status.ok());
  EXPECT_NE(status->find("completed=1"), std::string::npos) << *status;
}

TEST(Recovery, SameKeyWithADifferentSpecIsATypedRejection) {
  std::string design = write_temp("rec_dupbad.c", kClampSrc);
  CrashDaemon d("dupbad");
  CampaignSpec spec = clamp_spec(design);
  spec.key = "contested-key";
  SubmitOptions opt;
  opt.quiet = true;
  opt.out_path = temp_path("rec_dupbad1.txt");
  EXPECT_EQ(submit_job(d.socket, spec, opt), 0);

  CampaignSpec other = spec;
  other.seed = 99;  // same key, different job: refuse, never guess
  opt.out_path = temp_path("rec_dupbad2.txt");
  EXPECT_EQ(submit_job(d.socket, other, opt), 7);
}

TEST(Recovery, DeadlineExpiredWhileQueuedExitsEight) {
  std::string design = write_temp("rec_deadline.c", kClampSrc);
  // One executor, deterministically busy: job 1 stalls its worker on
  // site 0 until the 3s heartbeat watchdog clears it.
  CrashDaemon d("deadline", {"--jobs=1", "--workers=1", "--heartbeat-timeout-ms=3000",
                             "--backoff-base-ms=1", "--backoff-cap-ms=10"});
  CampaignSpec stall = clamp_spec(design);
  stall.workers = 1;
  stall.stall_at = {0};

  std::thread j1([&] {
    SubmitOptions opt;
    opt.quiet = true;
    opt.out_path = temp_path("rec_deadline1.txt");
    EXPECT_EQ(submit_job(d.socket, stall, opt), 0);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(600));

  CampaignSpec late = clamp_spec(design);
  late.key = "too-late";
  late.deadline_ms = 500;  // expires long before the executor frees up
  SubmitOptions opt;
  opt.quiet = true;
  opt.out_path = temp_path("rec_deadline2.txt");
  EXPECT_EQ(submit_job(d.socket, late, opt), 8);
  j1.join();
}

}  // namespace
}  // namespace hlsav::serve
