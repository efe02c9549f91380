// Daemon crash recovery end-to-end: a real hlsavd killed by -9 at
// every interesting phase of a job's life, restarted on the same
// socket/work/spool dirs, and the idempotent-resubmit contract -- the
// retried submit must yield a report byte-identical to an uninterrupted
// single-process run, and a duplicate key must never double-run. A
// spool that an older daemon wrote is re-adopted in job-id order.
#include <gtest/gtest.h>

#include <signal.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/daemon.h"
#include "support/jsonl.h"

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

/// Writes spool entry `job` as a daemon from before FIFO order wrote
/// it: the header also carries a priority, a deadline and a submit time,
/// and its canonical submit line carries the first two as well.
void write_old_spool_entry(const std::string& spool_dir, std::uint64_t job, int priority,
                           const std::string& design, const std::string& state) {
  std::string submit = "{\"type\":\"submit\",\"design\":";
  jsonl::append_escaped(submit, design);
  submit += ",\"feeds\":\"" + std::string(kClampFeed) +
            "\",\"assertions\":\"optimized\",\"seed\":7,\"max_faults\":0,\"max_cycles\":0,"
            "\"site_wall_ms\":0,\"workers\":0,\"priority\":" + std::to_string(priority) +
            ",\"crash_at\":[],\"crash_limit\":1,\"stall_at\":[],\"key\":\"old-" +
            std::to_string(job) + "\",\"deadline_ms\":0}";
  std::string header = "{\"type\":\"spool\",\"v\":1,\"job\":" + std::to_string(job) +
                       ",\"key\":\"old-" + std::to_string(job) + "\",\"priority\":" +
                       std::to_string(priority) +
                       ",\"deadline_ms\":0,\"submitted_unix_ms\":1754600000000,\"submit\":";
  jsonl::append_escaped(header, submit);
  header += "}\n";
  if (!state.empty()) header += "{\"type\":\"st\",\"state\":\"" + state + "\"}\n";
  char name[32];
  std::snprintf(name, sizeof name, "/job_%08llu.spool", static_cast<unsigned long long>(job));
  std::ofstream(spool_dir + name, std::ios::binary) << header;
}

/// Job ids of `event` lines in the event log, in log order.
std::vector<std::uint64_t> jobs_logged(const std::string& log, const std::string& event) {
  std::vector<std::uint64_t> jobs;
  std::istringstream in(log);
  std::string line, name;
  std::uint64_t job = 0;
  while (std::getline(in, line)) {
    if (jsonl::parse_string(line, "event", name) && name == event &&
        jsonl::parse_u64(line, "job", job)) {
      jobs.push_back(job);
    }
  }
  return jobs;
}

TEST(Recovery, OlderSpoolIsReAdoptedFirstInJobOrderAndItsKeysStillMatch) {
  std::string design = write_temp("rec_old.c", kClampSrc);
  std::string ref = clamp_reference(design);
  ASSERT_NE(ref.find("Fault-injection campaign"), std::string::npos) << ref;
  std::string events = temp_path("rec_old_events.jsonl");
  std::filesystem::remove(events);

  // One executor, so the queue order is the run order.
  Daemon d({"--jobs=1", "--events-out=" + events});
  ASSERT_TRUE(d.shutdown().clean());
  // Two unfinished jobs, the later one spooled at a higher priority,
  // and one that finished with its report on disk.
  const std::string spool = d.work_dir + "/spool";
  write_old_spool_entry(spool, 1, 0, design, "");
  write_old_spool_entry(spool, 2, 5, design, "running");
  write_old_spool_entry(spool, 3, 0, design, "done");
  std::filesystem::create_directories(d.work_dir + "/job_3");
  std::ofstream(d.work_dir + "/job_3/report.txt", std::ios::binary) << ref;
  d.restart();

  // A new job queues behind both re-adopted ones.
  CampaignSpec fresh = clamp_spec(design);
  SubmitOptions opt;
  opt.quiet = true;
  opt.out_path = temp_path("rec_old_fresh.txt");
  EXPECT_EQ(submit_job(d.socket, fresh, opt), 0);
  EXPECT_EQ(slurp(opt.out_path), ref);
  StatusOr<std::string> status = query_status(d.socket);
  ASSERT_TRUE(status.ok()) << status.status().to_string();
  EXPECT_NE(status->find("completed=3"), std::string::npos) << *status;
  EXPECT_NE(status->find("recovered 2 job(s) at boot"), std::string::npos) << *status;
  EXPECT_FALSE(std::filesystem::exists(spool + "/quarantine"));

  // Resubmitting an old key attaches to its job: a re-adopted one and
  // the one finished before the restart both replay their report.
  for (std::uint64_t job : {1u, 3u}) {
    CampaignSpec again = clamp_spec(design);
    again.key = "old-" + std::to_string(job);
    opt.out_path = temp_path("rec_old_again" + std::to_string(job) + ".txt");
    EXPECT_EQ(submit_job(d.socket, again, opt), 0) << job;
    EXPECT_EQ(slurp(opt.out_path), ref) << job;
  }
  EXPECT_TRUE(d.shutdown().clean());

  const std::string log = slurp(events);
  EXPECT_EQ(jobs_logged(log, "job-started"), (std::vector<std::uint64_t>{1, 2, 4}));
  EXPECT_EQ(jobs_logged(log, "job-duplicate"), (std::vector<std::uint64_t>{1, 3}));
  EXPECT_EQ(slurp(d.work_dir + "/job_2/report.txt"), ref);
}

}  // namespace
}  // namespace hlsav::serve
