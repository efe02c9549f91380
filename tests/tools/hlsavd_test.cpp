// hlsavd binary surface: usage contract, the standalone worker
// entrypoint (site ids on stdin, heartbeat and result lines on stdout),
// and the test-only crash flags that make crash containment
// deterministically exercisable.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "sim/journal.h"

#ifndef HLSAVD_PATH
#define HLSAVD_PATH "hlsavd"
#endif
#ifndef HLSAVC_PATH
#define HLSAVC_PATH "hlsavc"
#endif

namespace {

struct CmdResult {
  int exit_code = -1;    // WEXITSTATUS, or 128+sig via `sh` convention
  std::string output;    // stdout + stderr
};

CmdResult run_raw(const std::string& cmd) {
  std::array<char, 4096> buf{};
  CmdResult r;
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return r;
  while (fgets(buf.data(), static_cast<int>(buf.size()), pipe) != nullptr) {
    r.output += buf.data();
  }
  int status = pclose(pipe);
  if (WIFEXITED(status)) {
    r.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    r.exit_code = 128 + WTERMSIG(status);
  }
  return r;
}

CmdResult run_hlsavd(const std::string& args) {
  return run_raw(std::string(HLSAVD_PATH) + " " + args);
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + std::to_string(::getpid()) + "_" + name;
}

std::string write_temp(const std::string& name, const std::string& contents) {
  std::string path = temp_path(name);
  std::ofstream out(path);
  out << contents;
  return path;
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

constexpr const char* kFeed = "clamp.in=1,2,3,300,5,6";

/// Builds the full-campaign reference journal with hlsavc: its header
/// carries the resolved backstop and golden cycle count a supervisor
/// hands its workers, and its site lines are what a worker must print.
hlsav::sim::JournalContents reference_journal(const std::string& design,
                                              const std::string& journal) {
  CmdResult r = run_raw(std::string(HLSAVC_PATH) + " faultsim " + design +
                        " --campaign --feed " + kFeed + " --journal=" + journal);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  auto loaded = hlsav::sim::load_journal(journal);
  EXPECT_TRUE(loaded.ok()) << loaded.status().to_string();
  return loaded.ok() ? *std::move(loaded) : hlsav::sim::JournalContents{};
}

/// A worker fed `site_ids` (one per line) on stdin, then EOF.
CmdResult run_worker(const std::string& site_ids, const std::string& design,
                     const hlsav::sim::JournalHeader& h, const std::string& extra = "") {
  return run_raw("printf '" + site_ids + "' | " + HLSAVD_PATH + " worker --design=" + design +
                 " --max-cycles=" + std::to_string(h.max_cycles) +
                 " --golden-cycles=" + std::to_string(h.golden_cycles) + " --feed " + kFeed +
                 extra);
}

/// The result line a worker prints for `r`.
std::string result_line(const hlsav::sim::FaultResult& r) {
  return "{\"type\":\"site\"," + hlsav::sim::journal_line(r).substr(1);
}

TEST(Hlsavd, NoArgumentsPrintsUsageAndExits2) {
  CmdResult r = run_hlsavd("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage: hlsavd"), std::string::npos);
  EXPECT_NE(r.output.find("exit codes:"), std::string::npos);
}

TEST(Hlsavd, VersionExitsZero) {
  CmdResult r = run_hlsavd("--version");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("hlsavd"), std::string::npos);
}

TEST(Hlsavd, WorkerSweepsItsShardAndHeartbeats) {
  std::string design = write_temp("wrk_clamp.c", kClampSrc);
  hlsav::sim::JournalContents ref =
      reference_journal(design, temp_path("wrk_ref.jsonl"));
  ASSERT_GE(ref.results.size(), 3u);

  CmdResult r = run_worker("2\\n0\\n1\\n", design, ref.header);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  // Heartbeat contract: for each id, in the order handed out, "starting"
  // (the supervisor's blame target) and then the site's full journal
  // record -- byte-identical to the single-process campaign's.
  std::size_t pos = 0;
  for (std::uint32_t id : {2u, 0u, 1u}) {
    std::string starting = "{\"type\":\"starting\",\"site\":" + std::to_string(id) + "}\n";
    std::string result = result_line(ref.results.at(id)) + "\n";
    std::size_t s = r.output.find(starting, pos);
    ASSERT_NE(s, std::string::npos) << "site " << id << ":\n" << r.output;
    std::size_t d = r.output.find(result, s);
    ASSERT_NE(d, std::string::npos) << "site " << id << ":\n" << r.output;
    pos = d + result.size();
  }
}

TEST(Hlsavd, WorkerCrashFlagDiesBySigkillAfterDurableToken) {
  std::string design = write_temp("wrk_crash.c", kClampSrc);
  hlsav::sim::JournalContents ref =
      reference_journal(design, temp_path("wrk_crash_ref.jsonl"));

  std::string token_dir = temp_path("wrk_tokens");
  ASSERT_EQ(::mkdir(token_dir.c_str(), 0755), 0);
  std::string crash = " --crash-at-site=1 --fault-token-dir=" + token_dir;
  CmdResult r = run_worker("0\\n1\\n2\\n", design, ref.header, crash);
  EXPECT_EQ(r.exit_code, 128 + SIGKILL) << r.output;
  // Site 0 was reported before the kill; site 1 announced "starting"
  // but its result never went out -- exactly the state the supervisor
  // recovers from.
  EXPECT_NE(r.output.find(result_line(ref.results.at(0))), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("{\"type\":\"starting\",\"site\":1}"), std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("\"type\":\"site\",\"site\":1,"), std::string::npos) << r.output;

  // The trigger token survived the SIGKILL (written + fsync'd first):
  // the respawned worker runs the site instead of crashing forever.
  std::ifstream token(token_dir + "/crash_1.token");
  ASSERT_TRUE(token.good());
  int count = 0;
  token >> count;
  EXPECT_EQ(count, 1);

  CmdResult again = run_worker("1\\n", design, ref.header, crash);
  EXPECT_EQ(again.exit_code, 0) << again.output;
  EXPECT_NE(again.output.find(result_line(ref.results.at(1))), std::string::npos)
      << again.output;
}

TEST(Hlsavd, WorkerRefusesAGoldenCyclesMismatch) {
  std::string design = write_temp("wrk_mismatch.c", kClampSrc);
  hlsav::sim::JournalContents ref =
      reference_journal(design, temp_path("wrk_mismatch_ref.jsonl"));
  hlsav::sim::JournalHeader wrong = ref.header;
  wrong.golden_cycles += 1;
  CmdResult r = run_worker("0\\n", design, wrong);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("nondeterministic"), std::string::npos) << r.output;
  // It refuses before running anything.
  EXPECT_EQ(r.output.find("\"type\":\"starting\""), std::string::npos) << r.output;
}

TEST(Hlsavd, SubmitWithoutSocketIsUsage) {
  CmdResult r = run_hlsavd("submit --design=x.c");
  EXPECT_EQ(r.exit_code, 2);
}

TEST(Hlsavd, SubmitToADeadSocketIsAnErrorNotAHang) {
  CmdResult r = run_hlsavd("submit --socket=" + temp_path("no_daemon.sock") +
                           " --design=" + temp_path("nothing.c"));
  EXPECT_EQ(r.exit_code, 1);
}

}  // namespace
