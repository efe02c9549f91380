// Write-ahead job spool (serve/spool.h): header/state round trips and
// the crash-shaped load edge cases -- header-only entries, torn tails,
// duplicate keys across incarnations, unreadable entries.
#include "serve/spool.h"

#include <gtest/gtest.h>
#include <fcntl.h>
#include <unistd.h>

#include <cerrno>

#include <filesystem>
#include <fstream>
#include <string>

#include "common/test_util.h"
#include "support/wal.h"

namespace hlsav::serve {
namespace {

std::string fresh_dir(const std::string& name) {
  static int counter = 0;
  std::string dir = ::testing::TempDir() + "spool_" + std::to_string(::getpid()) + "_" +
                    std::to_string(counter++) + "_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

using hlsav::testing::slurp;

void append_raw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << bytes;
}

SpoolEntry entry(std::uint64_t job, const std::string& key) {
  SpoolEntry e;
  e.job = job;
  e.key = key;
  e.submit_line = "{\"type\":\"submit\",\"design\":\"d.c\",\"key\":\"" + key + "\"}";
  return e;
}

TEST(Spool, EmptyDirectoryScansToNothing) {
  StatusOr<JobSpool> spool = JobSpool::open(fresh_dir("empty"));
  ASSERT_TRUE(spool.ok()) << spool.status().to_string();
  StatusOr<SpoolScan> scan = spool->scan();
  ASSERT_TRUE(scan.ok()) << scan.status().to_string();
  EXPECT_TRUE(scan->entries.empty());
  EXPECT_EQ(scan->quarantined, 0u);
  EXPECT_EQ(scan->torn_tails, 0u);
}

TEST(Spool, AcceptedThenStateTransitionsRoundTrip) {
  StatusOr<JobSpool> spool = JobSpool::open(fresh_dir("roundtrip"));
  ASSERT_TRUE(spool.ok());
  ASSERT_TRUE(spool->record_accepted(entry(3, "key-a")).ok());
  ASSERT_TRUE(spool->record_state(3, "running").ok());
  ASSERT_TRUE(spool->record_state(3, "done").ok());

  StatusOr<SpoolScan> scan = spool->scan();
  ASSERT_TRUE(scan.ok()) << scan.status().to_string();
  ASSERT_EQ(scan->entries.size(), 1u);
  const SpoolEntry& e = scan->entries[0];
  EXPECT_EQ(e.job, 3u);
  EXPECT_EQ(e.key, "key-a");
  EXPECT_EQ(e.submit_line, entry(3, "key-a").submit_line);
  EXPECT_EQ(e.state, "done");
  EXPECT_TRUE(e.terminal());
}

TEST(Spool, HeaderOnlyEntryIsAQueuedJob) {
  // The daemon died between spooling and running: no state record at
  // all. Recovery must treat that as queued, not as corruption.
  StatusOr<JobSpool> spool = JobSpool::open(fresh_dir("headeronly"));
  ASSERT_TRUE(spool.ok());
  ASSERT_TRUE(spool->record_accepted(entry(1, "key-h")).ok());
  StatusOr<SpoolScan> scan = spool->scan();
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->entries.size(), 1u);
  EXPECT_EQ(scan->entries[0].state, "queued");
  EXPECT_FALSE(scan->entries[0].terminal());
}

TEST(Spool, TornTailRecordIsTruncatedAwayNotFatal) {
  StatusOr<JobSpool> spool = JobSpool::open(fresh_dir("torn"));
  ASSERT_TRUE(spool.ok());
  ASSERT_TRUE(spool->record_accepted(entry(5, "key-t")).ok());
  ASSERT_TRUE(spool->record_state(5, "running").ok());
  StatusOr<SpoolScan> before = spool->scan();
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->entries.size(), 1u);
  const std::string path = before->entries[0].path;
  const std::string intact = slurp(path);

  // A crash mid-append leaves half a record (newline present but the
  // JSON mangled): the loader must keep "running" and drop the tail.
  append_raw(path, "{\"type\":\"st\",\"sta");
  StatusOr<SpoolScan> scan = spool->scan();
  ASSERT_TRUE(scan.ok()) << scan.status().to_string();
  ASSERT_EQ(scan->entries.size(), 1u);
  EXPECT_EQ(scan->entries[0].state, "running");
  EXPECT_EQ(scan->torn_tails, 1u);
  // Truncated back to the durable prefix, so the next append is clean.
  EXPECT_EQ(slurp(path), intact);
  ASSERT_TRUE(spool->record_state(5, "done").ok());
  StatusOr<SpoolScan> after = spool->scan();
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->entries.size(), 1u);
  EXPECT_EQ(after->entries[0].state, "done");
  EXPECT_EQ(after->torn_tails, 0u);
}

TEST(Spool, DuplicateKeysAcrossIncarnationsAllLoad) {
  // Two incarnations of the daemon may have spooled different jobs
  // under the same idempotency key (e.g. a requeue after a crash).
  // The spool itself loads both, sorted by job id -- first-wins policy
  // belongs to the service layer, not the loader.
  StatusOr<JobSpool> spool = JobSpool::open(fresh_dir("dupkeys"));
  ASSERT_TRUE(spool.ok());
  ASSERT_TRUE(spool->record_accepted(entry(9, "shared-key")).ok());
  ASSERT_TRUE(spool->record_accepted(entry(2, "shared-key")).ok());
  StatusOr<SpoolScan> scan = spool->scan();
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->entries.size(), 2u);
  EXPECT_EQ(scan->entries[0].job, 2u);
  EXPECT_EQ(scan->entries[1].job, 9u);
  EXPECT_EQ(scan->entries[0].key, scan->entries[1].key);
}

TEST(Spool, CorruptEntryIsQuarantinedWithAReasonNeverABootFailure) {
  std::string dir = fresh_dir("corrupt");
  StatusOr<JobSpool> spool = JobSpool::open(dir);
  ASSERT_TRUE(spool.ok());
  ASSERT_TRUE(spool->record_accepted(entry(1, "key-ok")).ok());
  {
    std::ofstream bad(dir + "/job_00000002.spool", std::ios::binary);
    bad << "this is not a spool header\n{\"type\":\"st\",\"state\":\"running\"}\n";
  }
  {
    std::ofstream headerless(dir + "/job_00000003.spool", std::ios::binary);
    headerless << "no newline at all";
  }
  StatusOr<SpoolScan> scan = spool->scan();
  ASSERT_TRUE(scan.ok()) << scan.status().to_string();
  ASSERT_EQ(scan->entries.size(), 1u);
  EXPECT_EQ(scan->entries[0].key, "key-ok");
  EXPECT_EQ(scan->quarantined, 2u);
  // Both bad entries moved aside with a reason, out of future scans.
  EXPECT_FALSE(std::filesystem::exists(dir + "/job_00000002.spool"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/quarantine/job_00000002.spool"));
  std::string reason = slurp(dir + "/quarantine/job_00000002.spool.reason");
  EXPECT_NE(reason.find("header"), std::string::npos) << reason;
  EXPECT_TRUE(std::filesystem::exists(dir + "/quarantine/job_00000003.spool"));
  StatusOr<SpoolScan> again = spool->scan();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->quarantined, 0u);
  EXPECT_EQ(again->entries.size(), 1u);
}

TEST(Spool, TempSiblingsAndForeignFilesAreIgnored) {
  std::string dir = fresh_dir("foreign");
  StatusOr<JobSpool> spool = JobSpool::open(dir);
  ASSERT_TRUE(spool.ok());
  ASSERT_TRUE(spool->record_accepted(entry(4, "key-f")).ok());
  {
    std::ofstream tmp(dir + "/job_00000005.spool.tmp123", std::ios::binary);
    tmp << "interrupted atomic write";
  }
  {
    std::ofstream notes(dir + "/README", std::ios::binary);
    notes << "hands off";
  }
  StatusOr<SpoolScan> scan = spool->scan();
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->entries.size(), 1u);
  EXPECT_EQ(scan->quarantined, 0u);
}

// ------------------------------------------- IO fault injection (WAL) --

ssize_t eio_write(int, const void*, std::size_t) {
  errno = EIO;
  return -1;
}

int failing_fsync(int) {
  errno = EIO;
  return -1;
}

struct HookGuard {
  explicit HookGuard(const wal::IoHooks* hooks) { wal::set_io_hooks_for_test(hooks); }
  ~HookGuard() { wal::set_io_hooks_for_test(nullptr); }
};

TEST(Spool, StateRecordWriteFailureIsAnIoErrorWithTheErrnoText) {
  StatusOr<JobSpool> spool = JobSpool::open(fresh_dir("eio"));
  ASSERT_TRUE(spool.ok());
  ASSERT_TRUE(spool->record_accepted(entry(6, "key-eio")).ok());
  static wal::IoHooks hooks{eio_write, nullptr};
  HookGuard guard(&hooks);
  Status st = spool->record_state(6, "running");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.message().find("Input/output error"), std::string::npos) << st.message();
  EXPECT_NE(st.message().find("job_00000006.spool"), std::string::npos) << st.message();
}

TEST(Spool, StateRecordFsyncFailureIsAnIoErrorNotSilentDataLoss) {
  StatusOr<JobSpool> spool = JobSpool::open(fresh_dir("fsyncfail"));
  ASSERT_TRUE(spool.ok());
  ASSERT_TRUE(spool->record_accepted(entry(7, "key-fsync")).ok());
  static wal::IoHooks hooks{nullptr, failing_fsync};
  HookGuard guard(&hooks);
  Status st = spool->record_state(7, "done");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.message().find("Input/output error"), std::string::npos) << st.message();
}

TEST(Spool, TerminalStateVocabulary) {
  // A state only an older daemon wrote ends the job as well.
  for (const char* s : {"done", "error", "aborted", "drained", "retired-by-an-older-daemon"}) {
    EXPECT_TRUE(JobSpool::state_terminal(s)) << s;
  }
  for (const char* s : {"queued", "running"}) {
    EXPECT_FALSE(JobSpool::state_terminal(s)) << s;
  }
}

}  // namespace
}  // namespace hlsav::serve
