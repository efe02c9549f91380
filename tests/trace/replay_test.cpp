// Source-level replay: a captured window decoded back into HLS-C terms,
// ending with the implicated assertion and stream.
#include <gtest/gtest.h>

#include <limits>

#include "assertions/options.h"
#include "assertions/synthesize.h"
#include "common/test_util.h"
#include "sched/schedule.h"
#include "sim/fault.h"
#include "sim/simulator.h"
#include "trace/replay.h"
#include "trace/trace.h"

namespace hlsav::trace {
namespace {

using hlsav::testing::Compiled;
using hlsav::testing::compile;

constexpr const char* kLoopback = R"(
void f(stream_in<32> in, stream_out<32> out) {
  for (uint32 i = 0; i < 3; i++) {
    uint32 v;
    v = stream_read(in);
    assert(v < 50);
    stream_write(out, v + 1);
  }
}
)";

struct TracedRun {
  std::unique_ptr<Compiled> c;
  sched::DesignSchedule schedule;
  sim::ExternRegistry externs;
  // Constructed after synthesis so the engine sees the checker processes.
  std::unique_ptr<TraceEngine> engine;
  sim::RunResult result;

  TracedRun(std::unique_ptr<Compiled> compiled, const std::vector<std::uint64_t>& feed)
      : c(std::move(compiled)) {
    assertions::synthesize(c->design, assertions::Options::optimized());
    schedule = sched::schedule_design(c->design);
    engine = std::make_unique<TraceEngine>(c->design);
    sim::SimOptions opt;
    opt.mode = sim::SimMode::kHardware;
    opt.ela = engine.get();
    sim::Simulator s(c->design, schedule, externs, opt);
    s.set_failure_sink([](const assertions::Failure&) {});
    s.feed("f.in", feed);
    result = s.run();
  }
};

TEST(Replay, NamesFailingAssertionAndSourceLines) {
  TracedRun r(compile(kLoopback), {1, 99, 3});
  EXPECT_EQ(r.result.status, sim::RunStatus::kAborted);
  std::vector<TraceRecord> w = r.engine->window();
  ASSERT_FALSE(w.empty());

  EXPECT_EQ(implicated_assertion(w), 0u);
  ir::StreamId sid = implicated_stream(w);
  ASSERT_NE(sid, ir::kNoStream);
  EXPECT_FALSE(r.c->design.stream(sid).name.empty());

  ReplayOptions opt;
  opt.sm = &r.c->sm;
  std::string text = render_replay(r.c->design, w, opt);
  EXPECT_NE(text.find("source-level replay:"), std::string::npos);
  EXPECT_NE(text.find("`v < 50' FAILED"), std::string::npos);
  EXPECT_NE(text.find("implicated assertion: #0 `v < 50'"), std::string::npos);
  EXPECT_NE(text.find("implicated stream:"), std::string::npos);
  // Source positions resolve through the SourceManager.
  EXPECT_NE(text.find("[test.c:"), std::string::npos);
  // The failing value's journey is visible: read of 99, no write after.
  EXPECT_NE(text.find("read 'f.in' -> 99"), std::string::npos);
}

TEST(Replay, CleanRunImplicatesNoAssertion) {
  TracedRun r(compile(kLoopback), {1, 2, 3});
  EXPECT_EQ(r.result.status, sim::RunStatus::kCompleted);
  std::vector<TraceRecord> w = r.engine->window();
  ASSERT_FALSE(w.empty());
  EXPECT_EQ(implicated_assertion(w), std::numeric_limits<std::uint32_t>::max());
  std::string text = render_replay(r.c->design, w, {});
  EXPECT_EQ(text.find("FAILED"), std::string::npos);
  EXPECT_EQ(text.find("implicated assertion"), std::string::npos);
  // Verdicts still appear (as passes) and handshakes are narrated.
  EXPECT_NE(text.find("passed"), std::string::npos);
  EXPECT_NE(text.find("write 'f.out' <- 2"), std::string::npos);
}

TEST(Replay, LastCyclesTrimsTheNarration) {
  TracedRun r(compile(kLoopback), {1, 2, 3});
  std::vector<TraceRecord> w = r.engine->window();
  ASSERT_FALSE(w.empty());
  ReplayOptions wide;
  wide.last_cycles = 1'000'000;
  ReplayOptions tight;
  tight.last_cycles = 1;
  std::string all = render_replay(r.c->design, w, wide);
  std::string tail = render_replay(r.c->design, w, tight);
  EXPECT_LT(tail.size(), all.size());
  // The trimmed story still reports the full capture count.
  std::string suffix = " of " + std::to_string(w.size()) + " captured events)";
  EXPECT_NE(tail.find(suffix), std::string::npos);
}

// tests/smoke/stuck_loop.c: the inner loop touches no stream.
constexpr const char* kStuckLoop = R"(
void spin(stream_in<32> in, stream_out<32> out) {
  for (uint32 i = 0; i < 3; i++) {
    uint32 v = stream_read(in);
    uint32 acc = 0;
    for (uint32 j = 0; j < 20; j++) {
      acc = acc + v;
    }
    stream_write(out, acc);
  }
}
)";

TEST(Replay, LivelockImplicatesTheTrapBlockNotAStream) {
  auto c = compile(kStuckLoop);
  assertions::synthesize(c->design, assertions::Options::optimized());
  sched::DesignSchedule schedule = sched::schedule_design(c->design);
  const ir::Process& spin = *c->design.find_process("spin");
  // The inner loop's header (campaign site `branch stuck taken in 'spin'
  // block 'for_header4'`).
  ir::BlockId header = ir::kNoBlock;
  for (const ir::BasicBlock& b : spin.blocks) {
    if (b.name == "for_header4") header = b.id;
  }
  ASSERT_NE(header, ir::kNoBlock);

  sim::ExternRegistry externs;
  TraceEngine engine(c->design);
  sim::SimOptions opt;
  opt.ela = &engine;
  opt.faults.add(sim::FaultSpec::fsm_stuck_branch("spin", header, /*taken=*/true));
  sim::Simulator s(c->design, schedule, externs, opt);
  s.feed("spin.in", {1, 2, 3});
  sim::RunResult r = s.run();
  ASSERT_TRUE(r.hang.has_value());
  ASSERT_EQ(r.hang->kind, sim::HangKind::kLivelock);
  const std::string block = r.hang->livelock_block();
  EXPECT_EQ(block, spin.block(header).name);

  std::vector<TraceRecord> w = engine.window();
  ASSERT_FALSE(w.empty());
  // The window does hold a handshake (the read before the loop), which
  // a replay without the hang would implicate.
  ASSERT_NE(implicated_stream(w), ir::kNoStream);
  EXPECT_NE(render_replay(c->design, w, {}).find("implicated stream:"), std::string::npos);
  ReplayOptions ro;
  ro.livelock_block = block;
  std::string text = render_replay(c->design, w, ro);
  EXPECT_NE(text.find("implicated block: '" + block + "' (livelock)\n"), std::string::npos)
      << text;
  EXPECT_EQ(text.find("implicated stream:"), std::string::npos) << text;
}

TEST(Replay, EmptyWindowSaysSo) {
  auto c = compile(kLoopback);
  std::string text = render_replay(c->design, {}, {});
  EXPECT_EQ(text, "trace replay: no events captured\n");
}

}  // namespace
}  // namespace hlsav::trace
