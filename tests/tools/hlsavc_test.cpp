// End-to-end tests of the hlsavc command-line driver (subprocess).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "codegen/jit.h"
#include "common/test_util.h"

#ifndef HLSAVC_PATH
#define HLSAVC_PATH "hlsavc"
#endif

namespace {

struct CmdResult {
  int exit_code = -1;
  std::string output;  // stdout, and stderr unless it goes to a file
};

/// Runs hlsavc with its stderr sent to `stderr_to` (a path, or "&1").
CmdResult run_cmd(const std::string& args, const std::string& stderr_to = "&1") {
  std::string cmd = std::string(HLSAVC_PATH) + " " + args + " 2>" + stderr_to;
  std::array<char, 4096> buf{};
  CmdResult r;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  while (fgets(buf.data(), static_cast<int>(buf.size()), pipe) != nullptr) {
    r.output += buf.data();
  }
  int status = pclose(pipe);
  r.exit_code = WEXITSTATUS(status);
  return r;
}

using hlsav::testing::temp_path;
using hlsav::testing::write_temp;

const char* kGoodSrc = R"(
void f(stream_in<32> in, stream_out<32> out) {
  for (uint32 i = 0; i < 3; i++) {
    uint32 v;
    v = stream_read(in);
    assert(v < 50);
    stream_write(out, v + 1);
  }
}
)";

TEST(Hlsavc, CompileReportsAreaAndFmax) {
  std::string f = write_temp("good.c", kGoodSrc);
  CmdResult r = run_cmd("compile " + f);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("area:"), std::string::npos);
  EXPECT_NE(r.output.find("fmax:"), std::string::npos);
  EXPECT_NE(r.output.find("assertions synthesized: 1"), std::string::npos);
}

TEST(Hlsavc, SimulatePassing) {
  std::string f = write_temp("good.c", kGoodSrc);
  CmdResult r = run_cmd("simulate " + f + " --feed f.in=1,2,3");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("completed in"), std::string::npos);
  EXPECT_NE(r.output.find("f.out: 2 3 4"), std::string::npos);
}

TEST(Hlsavc, SimulateFailingAssertionPrintsAnsiMessage) {
  std::string f = write_temp("good.c", kGoodSrc);
  CmdResult r = run_cmd("simulate " + f + " --feed f.in=1,99,3");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("Assertion `v < 50' failed."), std::string::npos);
  EXPECT_NE(r.output.find("aborted"), std::string::npos);
}

TEST(Hlsavc, NabortContinues) {
  std::string f = write_temp("good.c", kGoodSrc);
  CmdResult r = run_cmd("simulate " + f + " --nabort --feed f.in=1,99,3");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("Assertion `v < 50' failed."), std::string::npos);
  EXPECT_NE(r.output.find("f.out: 2 100 4"), std::string::npos);
}

TEST(Hlsavc, NdebugStripsAssertions) {
  std::string f = write_temp("good.c", kGoodSrc);
  CmdResult r = run_cmd("simulate " + f + " --assertions=ndebug --feed f.in=1,99,3");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("Assertion"), std::string::npos);
}

TEST(Hlsavc, VerilogEmission) {
  std::string f = write_temp("good.c", kGoodSrc);
  CmdResult r = run_cmd("verilog " + f);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("module f ("), std::string::npos);
  EXPECT_NE(r.output.find("endmodule"), std::string::npos);
}

TEST(Hlsavc, IrAndScheduleDumps) {
  std::string f = write_temp("good.c", kGoodSrc);
  EXPECT_NE(run_cmd("ir " + f).output.find("process f("), std::string::npos);
  EXPECT_NE(run_cmd("schedule " + f).output.find("schedule f"), std::string::npos);
}

TEST(Hlsavc, OptimizeFlagReports) {
  std::string f = write_temp("good.c", kGoodSrc);
  CmdResult r = run_cmd("compile " + f + " --optimize");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("optimizer:"), std::string::npos);
}

TEST(Hlsavc, SyntaxErrorHasDiagnostic) {
  std::string f = write_temp("bad.c", "void f(stream_in<32> in) { uint32 x = ; }");
  CmdResult r = run_cmd("compile " + f);
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("error:"), std::string::npos);
  EXPECT_NE(r.output.find("bad.c:"), std::string::npos);
}

TEST(Hlsavc, MissingFile) {
  CmdResult r = run_cmd("compile /nonexistent/nope.c");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("cannot open"), std::string::npos);
}

TEST(Hlsavc, UsageOnBadArgs) {
  CmdResult r = run_cmd("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(Hlsavc, SoftwareSimulationMode) {
  std::string f = write_temp("good.c", kGoodSrc);
  CmdResult r = run_cmd("simulate " + f + " --sw --feed f.in=1,2,3");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("f.out: 2 3 4"), std::string::npos);
}

// ---- exit-code contract: 0 ok, 2 usage, 3 assertion abort, 4 hang ----

TEST(Hlsavc, HelpExitsZeroAndDocumentsTrace) {
  CmdResult r = run_cmd("--help");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
  EXPECT_NE(r.output.find("trace"), std::string::npos);
  EXPECT_NE(r.output.find("--trace-nonbenign"), std::string::npos);
  EXPECT_NE(r.output.find("exit codes"), std::string::npos);
}

TEST(Hlsavc, AssertionAbortExitsThree) {
  std::string f = write_temp("good.c", kGoodSrc);
  CmdResult r = run_cmd("simulate " + f + " --feed f.in=1,99,3");
  EXPECT_EQ(r.exit_code, 3) << r.output;
}

TEST(Hlsavc, HangExitsFour) {
  std::string f = write_temp("good.c", kGoodSrc);
  // Two words for a three-iteration loop: the read starves.
  CmdResult r = run_cmd("simulate " + f + " --feed f.in=1,2");
  EXPECT_EQ(r.exit_code, 4) << r.output;
  EXPECT_NE(r.output.find("hang"), std::string::npos);
}

TEST(Hlsavc, UnknownOptionExitsTwo) {
  std::string f = write_temp("good.c", kGoodSrc);
  CmdResult r = run_cmd("simulate " + f + " --no-such-flag");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

// ---- trace command ----

TEST(Hlsavc, TraceWritesVcdReplayAndElaReport) {
  std::string f = write_temp("good.c", kGoodSrc);
  std::string vcd = temp_path("good_trace.vcd");
  CmdResult r = run_cmd("trace " + f + " --feed f.in=1,99,3 --vcd=" + vcd);
  EXPECT_EQ(r.exit_code, 3) << r.output;  // run aborted on the assertion
  EXPECT_NE(r.output.find("vcd: " + vcd), std::string::npos);
  EXPECT_NE(r.output.find("source-level replay:"), std::string::npos);
  EXPECT_NE(r.output.find("implicated assertion: #0 `v < 50'"), std::string::npos);
  EXPECT_NE(r.output.find("ela:"), std::string::npos);
  EXPECT_NE(r.output.find("bram"), std::string::npos);

  std::ifstream in(vcd);
  ASSERT_TRUE(in.good()) << "trace did not write " << vcd;
  std::string doc((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(doc.find("$enddefinitions"), std::string::npos);
  EXPECT_NE(doc.find("assert_0_fail"), std::string::npos);
}

TEST(Hlsavc, FaultsimTraceSiteEmitsArtifactsForNonBenignSite) {
  std::string f = write_temp("good.c", kGoodSrc);
  std::string dir = temp_path("hlsavc_traces");
  // Site s1 (stream-drop on f.out) is silent corruption in this design.
  CmdResult r = run_cmd("faultsim " + f + " --feed f.in=1,2,3 --trace-site=1 --trace-dir=" + dir);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("source-level replay:"), std::string::npos);
  EXPECT_NE(r.output.find(".vcd"), std::string::npos);
}

// ---- --trace: the ELA's replay on stderr ----

struct SplitResult {
  int exit_code = -1;
  std::string out;
  std::string err;
};

/// Runs hlsavc with stdout and stderr kept apart.
SplitResult run_split(const std::string& args) {
  const std::string err_path = temp_path("hlsavc_split_stderr.txt");
  CmdResult r = run_cmd(args, err_path);
  return {r.exit_code, r.output, hlsav::testing::slurp(err_path)};
}

/// The source-level replay in `text`: from its header to the end, or to
/// the `ela:` area report that follows it in `trace`'s stdout.
std::string replay_in(const std::string& text) {
  const std::size_t begin = text.find("source-level replay:");
  if (begin == std::string::npos) return "";
  const std::size_t end = text.find("\nela: ", begin);
  return text.substr(begin, end == std::string::npos ? end : end + 1 - begin);
}

TEST(Hlsavc, SimulateTraceReplaysFromTheEla) {
  std::string f = write_temp("good.c", kGoodSrc);
  const std::string vcd = " --vcd=" + temp_path("trace_replay.vcd");
  struct Case {
    std::string run;    // traced with --trace appended
    std::string trace;  // the `trace` command on the same run
    int exit_code;
    std::string implicates;
  };
  const std::vector<Case> cases = {
      // The assertion fails on the second word.
      {"simulate " + f + " --feed f.in=1,99,3", "trace " + f + " --feed f.in=1,99,3", 3,
       "implicated assertion: #0 `v < 50' (process f, " + f + ":6)\n"},
      // s11 skips the loop body: a proven livelock, replayed over its
      // last 4 cycles.
      {"faultsim " + f + " --site=11 --last-cycles=4 --feed f.in=1,2,3",
       "trace " + f + " --site=11 --last-cycles=4 --feed f.in=1,2,3", 4,
       "implicated block: 'for_body2' (livelock)\n"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.run);
    SplitResult plain = run_split(c.run);
    SplitResult traced = run_split(c.run + " --trace");
    EXPECT_EQ(plain.exit_code, c.exit_code) << plain.err;
    EXPECT_EQ(traced.exit_code, c.exit_code) << traced.err;
    EXPECT_EQ(traced.out, plain.out);
    EXPECT_EQ(replay_in(plain.err), "");
    const std::string replay = replay_in(traced.err);
    EXPECT_NE(replay.find(c.implicates), std::string::npos) << traced.err;
    SplitResult ref = run_split(c.trace + vcd);
    EXPECT_EQ(ref.exit_code, c.exit_code) << ref.err;
    EXPECT_EQ(replay, replay_in(ref.out));
  }
}

TEST(Hlsavc, TraceIsAUsageErrorWhereNoRunIsReplayed) {
  std::string f = write_temp("good.c", kGoodSrc);
  for (const std::string& run : {"profile " + f + " --feed f.in=1,2,3",
                                 "faultsim " + f + " --campaign --feed f.in=1,2,3"}) {
    CmdResult r = run_cmd(run + " --trace");
    EXPECT_EQ(r.exit_code, 2) << run << ": " << r.output;
    EXPECT_NE(r.output.find("--trace applies only to simulate and faultsim --site=N"),
              std::string::npos)
        << run << ": " << r.output;
    EXPECT_EQ(r.output.find("Fault-injection campaign"), std::string::npos) << r.output;
  }
}

TEST(Hlsavc, OneSiteReproStopsAtTheCampaignBackstop) {
  // The inner loop's stuck-taken branch never exits, and its store keeps
  // it from being a provable livelock: only the cycle backstop ends that
  // site.
  std::string f = write_temp("backstop.c", R"(
void f(stream_in<32> in, stream_out<32> out) {
  uint32 buf[4];
  for (uint32 i = 0; i < 4; i++) {
    uint32 v = stream_read(in);
    uint32 acc = 0;
    for (uint32 j = 0; j < 50; j++) {
      acc = acc + v;
      buf[j & 3] = acc;
    }
    assert(acc >= v);
    stream_write(out, acc);
  }
}
)");
  const std::string feed = " --feed f.in=11,22,33,44";
  CmdResult campaign = run_cmd("faultsim " + f + " --campaign" + feed);
  ASSERT_EQ(campaign.exit_code, 0) << campaign.output;
  // The first hang-timeout row: "| sN | fault | hang-timeout | | C |".
  std::istringstream rows(campaign.output);
  std::string row, site, cycles;
  while (std::getline(rows, row) && site.empty()) {
    if (row.find("| hang-timeout ") == std::string::npos) continue;
    site = row.substr(3, row.find(' ', 3) - 3);
    std::size_t end = row.find_last_not_of(" |");
    cycles = row.substr(row.find_last_of(' ', end) + 1, end - row.find_last_of(' ', end));
  }
  ASSERT_FALSE(site.empty()) << campaign.output;

  // Both one-site repros: the plain run and the one with the ELA armed.
  for (const std::string& cmd :
       {"faultsim " + f, "trace " + f + " --vcd=" + temp_path("backstop.vcd")}) {
    CmdResult repro = run_cmd(cmd + " --site=" + site + feed);
    EXPECT_EQ(repro.exit_code, 4) << cmd << "\n" << repro.output;  // a hang
    EXPECT_NE(repro.output.find("cycle limit exceeded (cycle " + cycles + ")"), std::string::npos)
        << cmd << ": campaign row s" << site << " stopped at cycle " << cycles << "\n"
        << repro.output;
  }
}

TEST(Hlsavc, TrappedSiteReproNamesItsTrapBlock) {
  // The same loop without the store: its stuck-taken header is a proven
  // livelock. The campaign row is `hang-detected` at the cycle the loop
  // was entered, and the one-site repro stops in the same block at the
  // same cycle.
  std::string f = write_temp("trap.c", R"(
void f(stream_in<32> in, stream_out<32> out) {
  for (uint32 i = 0; i < 4; i++) {
    uint32 v = stream_read(in);
    uint32 acc = 0;
    for (uint32 j = 0; j < 50; j++) {
      acc = acc + v;
    }
    assert(acc >= v);
    stream_write(out, acc);
  }
}
)");
  const std::string feed = " --feed f.in=11,22,33,44";
  CmdResult campaign = run_cmd("faultsim " + f + " --campaign" + feed);
  ASSERT_EQ(campaign.exit_code, 0) << campaign.output;
  EXPECT_EQ(campaign.output.find("| hang-timeout "), std::string::npos) << campaign.output;
  // Rows: "| sN | branch stuck taken in 'f' block 'B' | outcome | | C |".
  std::istringstream rows(campaign.output);
  std::string row, site, block, cycles;
  while (std::getline(rows, row) && site.empty()) {
    if (row.find("branch stuck taken in 'f' block 'for_header4'") == std::string::npos) continue;
    ASSERT_NE(row.find("| hang-detected "), std::string::npos) << row;
    site = row.substr(3, row.find(' ', 3) - 3);
    std::size_t end = row.find_last_not_of(" |");
    cycles = row.substr(row.find_last_of(' ', end) + 1, end - row.find_last_of(' ', end));
  }
  ASSERT_FALSE(site.empty()) << campaign.output;

  CmdResult repro = run_cmd("faultsim " + f + " --site=" + site + feed);
  EXPECT_EQ(repro.exit_code, 4) << repro.output;  // a hang
  EXPECT_NE(repro.output.find("process 'f' stuck at line 6: livelock in block 'for_header4' "
                              "(no return or observable op is reachable) (cycle " +
                              cycles + ")"),
            std::string::npos)
      << "campaign row s" << site << " stopped at cycle " << cycles << "\n"
      << repro.output;
}

TEST(Hlsavc, AbortedSiteReproPrintsItsCampaignRowCycles) {
  // An aborted run has two cycles: where the failure notification
  // reached the CPU (each failure's "[cycle N]" line) and where the run
  // stopped (RunResult::cycles). A campaign row and a `--site=N` repro
  // both print the latter. Here the pipelined loop's failures land one
  // cycle before the run stops on some sites.
  std::string f = write_temp("abort_cycle.c", R"(
void f(stream_in<32> in, stream_out<32> out) {
  uint32 buf[4];
  for (uint32 i = 0; i < 4; i++) {
    uint32 v = stream_read(in);
    buf[i] = v;
    uint32 acc = 0;
    #pragma HLS pipeline
    for (uint32 j = 0; j < 8; j++) {
      acc = acc + buf[i];
      assert(acc <= 8 * v);
    }
    assert(acc == 8 * v);
    stream_write(out, acc);
  }
}
)");
  const std::string feed = " --feed f.in=11,22,33,44";
  CmdResult campaign = run_cmd("faultsim " + f + " --campaign" + feed);
  ASSERT_EQ(campaign.exit_code, 0) << campaign.output;
  // Rows: "| sN | fault | outcome | detected by | cycles |".
  auto trim = [](std::string x) {
    x.erase(0, x.find_first_not_of(' '));
    x.erase(x.find_last_not_of(' ') + 1);
    return x;
  };
  std::istringstream rows(campaign.output);
  std::string row;
  std::size_t checked = 0;
  while (std::getline(rows, row)) {
    std::vector<std::string> cols;
    std::istringstream cells(row);
    for (std::string c; std::getline(cells, c, '|');) cols.push_back(trim(c));
    if (cols.size() != 6 || cols[3] != "detected") continue;
    const std::string site = cols[1].substr(1);
    CmdResult repro = run_cmd("faultsim " + f + " --site=" + site + feed);
    EXPECT_EQ(repro.exit_code, 3) << repro.output;  // aborted
    EXPECT_NE(repro.output.find("stopped at cycle " + cols[5] + "\n"), std::string::npos)
        << "campaign row s" << site << " reads " << cols[5] << "\n"
        << repro.output;
    ++checked;
  }
  EXPECT_GT(checked, 0u) << campaign.output;
}

TEST(Hlsavc, CampaignTraceNonbenignListsTracedSites) {
  std::string f = write_temp("good.c", kGoodSrc);
  std::string dir = temp_path("hlsavc_campaign_traces");
  CmdResult r = run_cmd("faultsim " + f +
                        " --feed f.in=1,2,3 --campaign --trace-nonbenign --threads=2 "
                        "--trace-max-sites=2 --trace-dir=" +
                        dir);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("traced 2 non-benign site(s)"), std::string::npos);
  EXPECT_NE(r.output.find("source-level replay:"), std::string::npos);
}

// ---- provenance ----

TEST(Hlsavc, VersionPrintsShaAndBuildType) {
  CmdResult r = run_cmd("--version");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  // One line: "hlsavc <sha> (<build type>)".
  EXPECT_EQ(r.output.rfind("hlsavc ", 0), 0u) << r.output;
  EXPECT_NE(r.output.find('('), std::string::npos);
  EXPECT_NE(r.output.find(')'), std::string::npos);
  EXPECT_EQ(r.output.find('\n'), r.output.size() - 1) << r.output;
}

// ---- profile command ----

TEST(Hlsavc, ProfilePrintsTablesAndWritesValidTrace) {
  std::string f = write_temp("good.c", kGoodSrc);
  std::string trace = temp_path("profile.trace.json");
  CmdResult r = run_cmd("profile " + f + " --feed f.in=1,2,3 --trace-out=" + trace);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("Cycle attribution"), std::string::npos);
  EXPECT_NE(r.output.find("Hottest FSM states"), std::string::npos);
  EXPECT_NE(r.output.find("Assertion activity"), std::string::npos);
  // Hottest states resolve to the HLS-C source, assertions to their text.
  EXPECT_NE(r.output.find("good.c:"), std::string::npos);
  EXPECT_NE(r.output.find("'v < 50'"), std::string::npos);
  // The emitted trace passes the driver's own validator round-trip.
  CmdResult check = run_cmd("checktrace " + trace);
  EXPECT_EQ(check.exit_code, 0) << check.output;
  EXPECT_NE(check.output.find("valid Chrome trace"), std::string::npos);
}

TEST(Hlsavc, ProfileJsonDumpContainsAttribution) {
  std::string f = write_temp("good.c", kGoodSrc);
  std::string trace = temp_path("pj.trace.json");
  std::string json = temp_path("pj.profile.json");
  CmdResult r = run_cmd("profile " + f + " --feed f.in=1,2,3 --trace-out=" + trace +
                        " --profile-json=" + json);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  std::ifstream in(json);
  ASSERT_TRUE(in.good()) << "profile did not write " << json;
  std::string doc((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(doc.find("\"run_cycles\""), std::string::npos);
  EXPECT_NE(doc.find("\"attribution_exact\": true"), std::string::npos);
}

TEST(Hlsavc, ProfileKeepsExitCodeContractOnAbort) {
  std::string f = write_temp("good.c", kGoodSrc);
  std::string trace = temp_path("abort.trace.json");
  CmdResult r = run_cmd("profile " + f + " --feed f.in=1,99,3 --trace-out=" + trace);
  EXPECT_EQ(r.exit_code, 3) << r.output;  // aborted run still profiles
  EXPECT_NE(r.output.find("Cycle attribution"), std::string::npos);
  EXPECT_EQ(run_cmd("checktrace " + trace).exit_code, 0);
}

// ---- checktrace command ----

TEST(Hlsavc, ChecktraceRejectsMalformedFile) {
  std::string bad = write_temp("bad.trace.json", "{\"traceEvents\": [");
  CmdResult r = run_cmd("checktrace " + bad);
  EXPECT_EQ(r.exit_code, 1) << r.output;
}

TEST(Hlsavc, ChecktraceMissingFileExitsOne) {
  CmdResult r = run_cmd("checktrace /nonexistent/nope.trace.json");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("cannot open"), std::string::npos);
}

// ---- campaign progress & profile flags ----

TEST(Hlsavc, CampaignProgressEmitsHeartbeat) {
  std::string f = write_temp("good.c", kGoodSrc);
  CmdResult r = run_cmd("faultsim " + f + " --feed f.in=1,2,3 --campaign --progress");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  // The final site always emits, whatever the interval.
  EXPECT_NE(r.output.find("campaign: "), std::string::npos);
  EXPECT_NE(r.output.find("benign"), std::string::npos);
}

TEST(Hlsavc, CampaignProfileShowsDeltas) {
  std::string f = write_temp("good.c", kGoodSrc);
  CmdResult r = run_cmd("faultsim " + f + " --feed f.in=1,2,3 --campaign --profile");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("profile deltas vs golden"), std::string::npos);
}

TEST(Hlsavc, CompiledCampaignRunsEverySiteCompiledWithTheSameReport) {
  if (hlsav::codegen::find_compiler().empty()) GTEST_SKIP() << "no host C compiler";
  ::setenv("HLSAV_CACHE_DIR", temp_path("jit-cache").c_str(), 1);
  std::string f = write_temp("good.c", kGoodSrc);
  const std::string campaign = "faultsim " + f + " --feed f.in=1,2,3 --campaign";
  CmdResult interp = run_cmd(campaign + " --engine=interpreter");
  CmdResult comp = run_cmd(campaign + " --engine=compiled");
  ASSERT_EQ(interp.exit_code, 0) << interp.output;
  ASSERT_EQ(comp.exit_code, 0) << comp.output;
  const std::string line = "hlsavc: compiled engine ran ";
  EXPECT_EQ(interp.output.find(line), std::string::npos) << interp.output;
  std::size_t at = comp.output.find(line);
  ASSERT_NE(at, std::string::npos) << comp.output;
  std::size_t eol = comp.output.find('\n', at);
  // "N/M faulted sites" with N == M: no site fell back to the interpreter.
  std::string counts = comp.output.substr(at + line.size(), eol - at - line.size());
  std::size_t slash = counts.find('/');
  ASSERT_NE(slash, std::string::npos) << counts;
  EXPECT_EQ(counts.substr(0, slash), counts.substr(slash + 1, counts.find(' ') - slash - 1));
  // The line is the only difference; the report itself is byte-identical.
  std::string report = comp.output;
  report.erase(at, eol + 1 - at);
  EXPECT_EQ(report, interp.output);
}

// ---- robustness: every malformed input exits with a diagnostic ----

TEST(Hlsavc, MultipleSyntaxErrorsReportedInOneRun) {
  std::string f = write_temp("multi.c", R"(
void f(stream_in<32> in, stream_out<32> out) {
  uint32 a = ;
  uint32 b = stream_read(in);
  uint32 c = ;
  stream_write(out, b);
}
)");
  CmdResult r = run_cmd("compile " + f);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("multi.c:3:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("multi.c:5:"), std::string::npos) << r.output;
}

TEST(Hlsavc, OverWideLiteralIsDiagnosedNotCrashed) {
  std::string f = write_temp("wide.c",
                             "void f(stream_in<32> in) { uint64 x; "
                             "x = 99999999999999999999999999; }");
  CmdResult r = run_cmd("compile " + f);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("error:"), std::string::npos) << r.output;
}

TEST(Hlsavc, MalformedFlagValueExitsTwo) {
  std::string f = write_temp("good.c", kGoodSrc);
  for (const char* flag :
       {"--seed=banana", "--max-cycles=12potatoes", "--threads=", "--site-wall-ms=abc",
        "--feed f.in=1,banana,3", "--site-wall-ms=-5"}) {
    CmdResult r = run_cmd("faultsim " + f + " --campaign --feed f.in=1,2,3 " + flag);
    EXPECT_EQ(r.exit_code, 2) << flag << ": " << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos) << flag;
  }
}

TEST(Hlsavc, BinaryGarbageInputNeverCrashes) {
  // Every non-NUL byte value (NUL reads as end-of-input and yields an
  // empty -- vacuously valid -- program): diagnostics, never a signal.
  std::string garbage;
  for (int i = 1; i < 256; ++i) garbage += static_cast<char>(i);
  std::string f = write_temp("garbage.c", garbage);
  CmdResult r = run_cmd("compile " + f);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("error"), std::string::npos) << r.output;
}

// ---- watchdog budget: exit code 5 ----

TEST(Hlsavc, ExpiredBudgetExitsFive) {
  std::string f = write_temp("good.c", kGoodSrc);
  // A zero-millisecond budget expires before the first cycle: the
  // deterministic path through RunStatus::kDeadline.
  CmdResult r = run_cmd("simulate " + f + " --feed f.in=1,2,3 --site-wall-ms=0.000001");
  EXPECT_EQ(r.exit_code, 5) << r.output;
  EXPECT_NE(r.output.find("budget"), std::string::npos) << r.output;
}

TEST(Hlsavc, HelpDocumentsJournalResumeAndBudget) {
  CmdResult r = run_cmd("--help");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("--journal"), std::string::npos);
  EXPECT_NE(r.output.find("--resume"), std::string::npos);
  EXPECT_NE(r.output.find("--site-wall-ms"), std::string::npos);
  EXPECT_NE(r.output.find("5"), std::string::npos);
}

// ---- campaign journal / resume via the CLI ----

TEST(Hlsavc, CampaignJournalResumeMatchesUninterrupted) {
  std::string f = write_temp("good.c", kGoodSrc);
  std::string journal = temp_path("cli_resume.jsonl");
  CmdResult full = run_cmd("faultsim " + f + " --feed f.in=1,2,3 --campaign --journal=" + journal);
  EXPECT_EQ(full.exit_code, 0) << full.output;

  // Keep the header and the first two result lines: a kill mid-sweep.
  std::ifstream in(journal);
  ASSERT_TRUE(in.good());
  std::string line, prefix;
  for (int i = 0; i < 3 && std::getline(in, line); ++i) prefix += line + "\n";
  in.close();
  {
    std::ofstream out(journal, std::ios::trunc);
    out << prefix << "{\"site\":9,\"torn";  // plus a torn tail
  }

  CmdResult resumed = run_cmd("faultsim " + f + " --feed f.in=1,2,3 --campaign --resume " +
                              "--journal=" + journal);
  EXPECT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_EQ(resumed.output, full.output);

  // Parallel resume over the now-complete journal is also identical.
  CmdResult par = run_cmd("faultsim " + f + " --feed f.in=1,2,3 --campaign --resume " +
                          "--threads=4 --journal=" + journal);
  EXPECT_EQ(par.exit_code, 0) << par.output;
  EXPECT_EQ(par.output, full.output);
}

TEST(Hlsavc, CampaignSigintFlushesJournalAndExitsSix) {
  // A campaign slow enough that SIGINT lands mid-sweep: the inner
  // compute loop makes every site run ~a million cycles while the feed
  // stays short (a whole-campaign run takes seconds).
  std::string src = "void f(stream_in<32> in, stream_out<32> out) {\n"
                    "  for (uint32 i = 0; i < 50; i++) {\n"
                    "    uint32 v = stream_read(in);\n"
                    "    uint32 acc = 0;\n"
                    "    for (uint32 j = 0; j < 20000; j++) {\n"
                    "      acc = acc + v;\n"
                    "    }\n"
                    "    assert(acc >= v);\n"
                    "    stream_write(out, acc);\n"
                    "  }\n"
                    "}\n";
  std::string f = write_temp("slow_sigint.c", src);
  std::string feed = "f.in=";
  for (unsigned i = 0; i < 50; ++i) feed += (i == 0 ? "1" : ",1");
  std::string feed_file = write_temp("slow_sigint_feed.txt", feed);
  std::string journal = temp_path("sigint.jsonl");
  std::string out_file = temp_path("sigint_out.txt");

  // Launch the campaign, interrupt it shortly after, and capture its
  // real exit code through the shell (popen only sees the last one).
  std::string cmd = std::string("sh -c '") + HLSAVC_PATH + " faultsim " + f +
                    " --campaign --journal=" + journal + " --feed \"$(cat " + feed_file +
                    ")\" > " + out_file + " 2>&1 & pid=$!; sleep 0.15; " +
                    "kill -INT $pid; wait $pid; echo rc=$?'";
  std::array<char, 4096> buf{};
  std::string shell_out;
  FILE* pipe = popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  while (fgets(buf.data(), static_cast<int>(buf.size()), pipe) != nullptr) {
    shell_out += buf.data();
  }
  pclose(pipe);

  std::ifstream captured(out_file);
  std::string output{std::istreambuf_iterator<char>(captured),
                     std::istreambuf_iterator<char>()};
  if (shell_out.find("rc=6") == std::string::npos) {
    // The sweep won the race and finished first -- fine on a fast
    // machine, nothing more to assert.
    EXPECT_NE(shell_out.find("rc=0"), std::string::npos) << shell_out << output;
    return;
  }
  // Exit 6 = interrupted: the journal is flushed and the hint names it.
  EXPECT_NE(output.find("campaign interrupted by signal"), std::string::npos) << output;
  EXPECT_NE(output.find(journal), std::string::npos) << output;
  EXPECT_NE(output.find("--resume"), std::string::npos) << output;

  // The flushed journal resumes to a clean finish.
  CmdResult resumed = run_cmd("faultsim " + f + " --campaign --resume --journal=" + journal +
                              " --feed \"$(cat " + feed_file + ")\"");
  EXPECT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_NE(resumed.output.find("Fault-injection campaign"), std::string::npos)
      << resumed.output;
}

TEST(Hlsavc, JournalInUnwritableDirectoryFailsCleanly) {
  std::string f = write_temp("good.c", kGoodSrc);
  CmdResult r = run_cmd("faultsim " + f +
                        " --feed f.in=1,2,3 --campaign --journal=/nonexistent_dir/j.jsonl");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("hlsavc:"), std::string::npos) << r.output;
}

}  // namespace
