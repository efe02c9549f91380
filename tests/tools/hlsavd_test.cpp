// hlsavd binary surface: usage contract, the standalone worker
// entrypoint (site ids on stdin, heartbeat and result lines on stdout),
// and the test-only crash flags that make crash containment
// deterministically exercisable.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/daemon.h"
#include "serve/protocol.h"
#include "sim/journal.h"

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

using hlsav::testing::kClampFeed;
using hlsav::testing::kClampSrc;
using hlsav::testing::temp_path;
using hlsav::testing::write_temp;

/// Builds the full-campaign reference journal with hlsavc: its header
/// carries the resolved backstop and golden cycle count a supervisor
/// hands its workers, and its site lines are what a worker must print.
hlsav::sim::JournalContents reference_journal(const std::string& design,
                                              const std::string& journal) {
  CmdResult r = run_raw(std::string(HLSAVC_PATH) + " faultsim " + design +
                        " --campaign --feed " + kClampFeed + " --journal=" + journal);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  auto loaded = hlsav::sim::load_journal(journal);
  EXPECT_TRUE(loaded.ok()) << loaded.status().to_string();
  return loaded.ok() ? *std::move(loaded) : hlsav::sim::JournalContents{};
}

/// A worker fed `site_ids` (one per line) on stdin, then EOF. Its JIT
/// cache is private to this test process.
CmdResult run_worker(const std::string& site_ids, const std::string& design,
                     const hlsav::sim::JournalHeader& h, const std::string& extra = "") {
  hlsav::testing::use_private_jit_cache();
  return run_raw("printf '" + site_ids + "' | " + HLSAVD_PATH + " worker --design=" + design +
                 " --max-cycles=" + std::to_string(h.max_cycles) +
                 " --golden-cycles=" + std::to_string(h.golden_cycles) + " --feed " + kClampFeed +
                 extra);
}

/// The start of the result line a worker prints for `r`: the site's
/// journal record, byte for byte, then the engine that ran it.
std::string result_line(const hlsav::sim::FaultResult& r) {
  std::string record = hlsav::sim::journal_line(r);
  return "{\"type\":\"site\"," + record.substr(1, record.size() - 2) + ",\"engine\":\"";
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
  // record -- byte-identical to the single-process campaign's -- and the
  // engine that ran it, with the simulator's reason if it interpreted.
  std::size_t pos = 0;
  for (std::uint32_t id : {2u, 0u, 1u}) {
    std::string starting = "{\"type\":\"starting\",\"site\":" + std::to_string(id) + "}\n";
    std::string result = result_line(ref.results.at(id));
    std::size_t s = r.output.find(starting, pos);
    ASSERT_NE(s, std::string::npos) << "site " << id << ":\n" << r.output;
    std::size_t d = r.output.find(result, s);
    ASSERT_NE(d, std::string::npos) << "site " << id << ":\n" << r.output;
    pos = r.output.find('\n', d);
    ASSERT_NE(pos, std::string::npos) << r.output;
    std::string engine = r.output.substr(d + result.size(), pos - d - result.size());
    EXPECT_TRUE(engine == "compiled\"}" || engine == "interpreter\"}" ||
                engine.rfind("interpreter\",\"engine_note\":\"", 0) == 0)
        << engine;
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
  EXPECT_EQ(r.exit_code, hlsav::serve::kWorkerGoldenMismatchExit);
  EXPECT_NE(r.output.find("nondeterministic"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("the supervisor's interpreted golden run took"), std::string::npos)
      << r.output;
  // It refuses before running anything.
  EXPECT_EQ(r.output.find("\"type\":\"starting\""), std::string::npos) << r.output;
}

TEST(Hlsavd, SubmitWithoutSocketIsUsage) {
  CmdResult r = run_hlsavd("submit --design=x.c");
  EXPECT_EQ(r.exit_code, 2);
}

TEST(Hlsavd, BadSubmitOptionIsUsage) {
  // Options the daemon does not know and budgets the worker would
  // journal as garbage are refused before any connection is made.
  for (const char* flag : {"--priority=1", "--deadline-ms=500", "--site-wall-ms=-5",
                           "--site-wall-ms=nan", "--site-wall-ms=inf"}) {
    CmdResult r = run_hlsavd("submit --socket=" + temp_path("no_daemon.sock") + " --design=" +
                             temp_path("nothing.c") + " " + flag);
    EXPECT_EQ(r.exit_code, 2) << flag << ": " << r.output;
    EXPECT_NE(r.output.find("usage: hlsavd"), std::string::npos) << flag;
  }
}

TEST(Hlsavd, AnOptionItsSubcommandWouldIgnoreIsUsage) {
  // Each subcommand takes only its own options: another's is refused
  // before a daemon starts, a connection is made or a file is written.
  const std::string sock = temp_path("ignored.sock");
  const std::string work = temp_path("ignored_work");
  for (const std::string& call :
       {"serve --socket=" + sock + " --work-dir=" + work + " --key=K",
        "serve --socket=" + sock + " --work-dir=" + work + " --golden-cycles=5",
        "status --socket=" + sock + " --design=x.c --queue-cap=3 --key=k",
        "submit --socket=" + sock + " --design=x.c --queue-cap=4",
        "watch --socket=" + sock + " --job=1 --seed=3"}) {
    CmdResult r = run_hlsavd(call);
    EXPECT_EQ(r.exit_code, 2) << call << ": " << r.output;
    EXPECT_NE(r.output.find(" applies only to "), std::string::npos) << call << ": " << r.output;
    EXPECT_NE(r.output.find("usage: hlsavd"), std::string::npos) << call;
    EXPECT_FALSE(std::filesystem::exists(sock) || std::filesystem::exists(work)) << call;
  }
}

TEST(Hlsavd, SubmitToADeadSocketIsAnErrorNotAHang) {
  CmdResult r = run_hlsavd("submit --socket=" + temp_path("no_daemon.sock") +
                           " --design=" + temp_path("nothing.c"));
  EXPECT_EQ(r.exit_code, 1);
}

}  // namespace
