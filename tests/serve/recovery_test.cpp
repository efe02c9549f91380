// Daemon crash recovery end-to-end: a real hlsavd killed by -9 at
// every interesting phase of a job's life, restarted on the same
// socket/work/spool dirs, and the idempotent-resubmit contract -- the
// retried submit must yield a report byte-identical to an uninterrupted
// single-process run, and a duplicate key must never double-run.
#include <gtest/gtest.h>

#include <signal.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/daemon.h"

namespace hlsav::serve {
namespace {

using hlsav::testing::clamp_reference;
using hlsav::testing::clamp_spec;
using hlsav::testing::Daemon;
using hlsav::testing::kClampFeed;
using hlsav::testing::kClampSrc;
using hlsav::testing::run_hlsavc;
using hlsav::testing::slurp;
using hlsav::testing::temp_path;
using hlsav::testing::write_temp;

/// The core property: kill -9 at `phase`, restart, blindly resubmit the
/// same idempotency key with --retry semantics, and the report must be
/// byte-identical to the uninterrupted single-process reference.
void crash_and_recover(const std::string& phase, bool job_spooled_before_death) {
  std::string design = write_temp("rec_clamp_" + phase + ".c", kClampSrc);
  std::string ref = clamp_reference(design);
  ASSERT_NE(ref.find("Fault-injection campaign"), std::string::npos) << ref;

  Daemon d({"--die-at=" + phase, "--backoff-base-ms=1", "--backoff-cap-ms=10"});
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

  // One journal per job and no per-worker ones. It is an ordinary
  // campaign journal: hlsavc resumes it without running a site (the
  // file does not grow) and renders the same report.
  namespace fs = std::filesystem;
  std::vector<std::string> journals;
  for (const fs::directory_entry& e : fs::recursive_directory_iterator(d.work_dir)) {
    const std::string name = e.path().filename().string();
    EXPECT_FALSE(name.starts_with("shard_") && name.ends_with(".jsonl")) << e.path();
    if (name == "journal.jsonl" && e.path().parent_path().parent_path() == d.work_dir &&
        e.path().parent_path().filename().string().starts_with("job_")) {
      journals.push_back(e.path().string());
    }
  }
  ASSERT_EQ(journals.size(), 1u);
  const std::uintmax_t bytes = fs::file_size(journals[0]);
  EXPECT_EQ(run_hlsavc("faultsim " + design + " --campaign --resume --seed=7 --feed " +
                       kClampFeed + " --journal=" + journals[0]),
            ref);
  EXPECT_EQ(fs::file_size(journals[0]), bytes) << "hlsavc re-ran sites";
  EXPECT_TRUE(d.shutdown().clean());
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
  std::string ref = clamp_reference(design);
  ASSERT_NE(ref.find("Fault-injection campaign"), std::string::npos) << ref;

  Daemon d;
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
  Daemon d;
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
  Daemon d({"--jobs=1", "--workers=1", "--heartbeat-timeout-ms=3000", "--backoff-base-ms=1",
            "--backoff-cap-ms=10"});
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
