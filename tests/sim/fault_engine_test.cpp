// FaultEngine: site enumeration determinism and the observable effect
// of each fault kind, at the hook level for the stream and channel hooks
// and end-to-end through the simulator for all of them.
#include <gtest/gtest.h>

#include "assertions/options.h"
#include "assertions/synthesize.h"
#include "common/test_util.h"
#include "sim/fault.h"
#include "sim/simulator.h"

namespace hlsav::sim {
namespace {

using hlsav::testing::compile;

struct H {
  ir::Design design;
  sched::DesignSchedule schedule;
  ExternRegistry externs;
};

H make(const std::string& src, const assertions::Options& aopt = assertions::Options::ndebug()) {
  auto c = compile(src);
  H h;
  h.design = c->design.clone();
  assertions::synthesize(h.design, aopt);
  ir::verify(h.design);
  h.schedule = sched::schedule_design(h.design);
  return h;
}

const char* kEchoSrc = R"(
  void f(stream_in<32> in, stream_out<32> out) {
    uint32 ram[8];
    for (uint32 i = 0; i < 4; i++) {
      uint32 v = stream_read(in);
      ram[i] = v;
      stream_write(out, ram[i]);
    }
  }
)";

TEST(FaultEngine, EnumerationIsDeterministicAndDenselyNumbered) {
  H h = make(kEchoSrc, assertions::Options::optimized());
  std::vector<FaultSpec> a = enumerate_fault_sites(h.design, h.schedule);
  std::vector<FaultSpec> b = enumerate_fault_sites(h.design, h.schedule);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, i);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].describe(h.design), b[i].describe(h.design));
  }
}

TEST(FaultEngine, StreamHookDropDupAndStuck) {
  FaultEngine e;
  e.add(FaultSpec::stream_drop(ir::StreamId{2}, 1));
  BitVector v = BitVector::from_u64(32, 7);
  EXPECT_EQ(e.on_stream_write(ir::StreamId{2}, 0, v), FaultEngine::StreamAction::kPass);
  EXPECT_EQ(e.on_stream_write(ir::StreamId{2}, 1, v), FaultEngine::StreamAction::kDrop);
  EXPECT_EQ(e.on_stream_write(ir::StreamId{3}, 1, v), FaultEngine::StreamAction::kPass);

  FaultEngine dup;
  dup.add(FaultSpec::stream_dup(ir::StreamId{2}, 0));
  EXPECT_EQ(dup.on_stream_write(ir::StreamId{2}, 0, v), FaultEngine::StreamAction::kDup);

  FaultEngine stuck;
  stuck.add(FaultSpec::stream_stuck(ir::StreamId{2}, 1, 0xAB));
  BitVector w = BitVector::from_u64(32, 7);
  EXPECT_EQ(stuck.on_stream_write(ir::StreamId{2}, 0, w), FaultEngine::StreamAction::kPass);
  EXPECT_EQ(w.to_u64(), 7u);  // before the fault window: untouched
  EXPECT_EQ(stuck.on_stream_write(ir::StreamId{2}, 5, w), FaultEngine::StreamAction::kPass);
  EXPECT_EQ(w.to_u64(), 0xABu);  // from word 1 on: replaced
}

TEST(FaultEngine, ChannelHook) {
  FaultEngine e;
  e.add(FaultSpec::channel_corrupt(1, 4));
  BitVector v = BitVector::from_u64(32, 0);
  e.on_channel_word(0, v);
  EXPECT_EQ(v.to_u64(), 0u);
  e.on_channel_word(1, v);
  EXPECT_EQ(v.to_u64(), 16u);
}

TEST(FaultEngine, StreamDropChangesReceivedWords) {
  H h = make(kEchoSrc);
  ir::StreamId out = h.design.find_process("f")->find_port("out")->stream;

  SimOptions so;
  so.faults.add(FaultSpec::stream_drop(out, 1));
  Simulator s(h.design, h.schedule, h.externs, so);
  s.feed("f.in", {10, 20, 30, 40});
  RunResult r = s.run();
  ASSERT_EQ(r.status, RunStatus::kCompleted) << r.hang_report;
  EXPECT_EQ(s.received("f.out"), (std::vector<std::uint64_t>{10, 30, 40}));
}

TEST(FaultEngine, BramFaultCorruptsReadBack) {
  H h = make(kEchoSrc);
  ASSERT_FALSE(h.design.memories.empty());

  SimOptions so;
  so.faults.add(FaultSpec::bram_bit_flip(ir::MemId{0}, 7));
  Simulator s(h.design, h.schedule, h.externs, so);
  s.feed("f.in", {1, 2, 3, 4});
  RunResult r = s.run();
  ASSERT_EQ(r.status, RunStatus::kCompleted) << r.hang_report;
  EXPECT_EQ(s.received("f.out"), (std::vector<std::uint64_t>{129, 130, 131, 132}));
}

TEST(FaultEngine, BramFaultsComposeInArmingOrder) {
  H h = make(kEchoSrc);
  ASSERT_FALSE(h.design.memories.empty());
  auto run = [&](std::vector<FaultSpec> faults) {
    SimOptions so;
    for (FaultSpec& f : faults) so.faults.add(std::move(f));
    Simulator s(h.design, h.schedule, h.externs, so);
    s.feed("f.in", {1, 2, 3, 4});
    RunResult r = s.run();
    EXPECT_EQ(r.status, RunStatus::kCompleted) << r.hang_report;
    return s.received("f.out");
  };
  const ir::MemId ram{0};
  // Stuck-at-1 then a flip of the same bit reads 0; the other order 1.
  EXPECT_EQ(run({FaultSpec::bram_stuck_at(ram, 0, true), FaultSpec::bram_bit_flip(ram, 0)}),
            (std::vector<std::uint64_t>{0, 2, 2, 4}));
  EXPECT_EQ(run({FaultSpec::bram_bit_flip(ram, 0), FaultSpec::bram_stuck_at(ram, 0, true)}),
            (std::vector<std::uint64_t>{1, 3, 3, 5}));
  // A bit at or beyond the memory width, or another memory: no effect.
  EXPECT_EQ(run({FaultSpec::bram_bit_flip(ram, 32), FaultSpec::bram_bit_flip(ir::MemId{1}, 0)}),
            (std::vector<std::uint64_t>{1, 2, 3, 4}));
}

TEST(FaultEngine, FsmFaultsSkipAndForceBlocks) {
  H h = make(kEchoSrc);
  const ir::Process& p = *h.design.find_process("f");
  ir::BlockId header = ir::kNoBlock;
  ir::BlockId writer = ir::kNoBlock;
  for (const ir::BasicBlock& b : p.blocks) {
    if (header == ir::kNoBlock && b.term.kind == ir::TermKind::kBranch) header = b.id;
    for (const ir::Op& op : b.ops) {
      if (op.kind == ir::OpKind::kStreamWrite) writer = b.id;
    }
  }
  ASSERT_NE(header, ir::kNoBlock);
  ASSERT_NE(writer, ir::kNoBlock);
  auto run = [&](FaultSpec f) {
    SimOptions so;
    so.max_cycles = 10'000;
    so.faults.add(std::move(f));
    Simulator s(h.design, h.schedule, h.externs, so);
    s.feed("f.in", {1, 2, 3, 4});
    RunResult r = s.run();
    return std::make_pair(r.status, s.received("f.out"));
  };
  using Words = std::vector<std::uint64_t>;
  // The loop test stuck not-taken: the body never runs.
  EXPECT_EQ(run(FaultSpec::fsm_stuck_branch("f", header, false)),
            std::make_pair(RunStatus::kCompleted, Words{}));
  // The loop body (which also counts `i`) skipped: a livelock that sends
  // nothing, ended by the cycle limit.
  EXPECT_EQ(run(FaultSpec::fsm_skip_block("f", writer)), std::make_pair(RunStatus::kHung, Words{}));
  // Aimed at another process: no effect.
  EXPECT_EQ(run(FaultSpec::fsm_skip_block("g", writer)),
            std::make_pair(RunStatus::kCompleted, Words{1, 2, 3, 4}));
}

TEST(FaultEngine, EmptyEngineLeavesRunIdentical) {
  H h = make(kEchoSrc);
  auto run = [&](SimOptions so) {
    Simulator s(h.design, h.schedule, h.externs, so);
    s.feed("f.in", {10, 20, 30, 40});
    RunResult r = s.run();
    EXPECT_EQ(r.status, RunStatus::kCompleted);
    return std::make_pair(r.cycles, s.received("f.out"));
  };
  auto base = run({});
  SimOptions with_engine;  // engine constructed but empty: must cost nothing
  auto faulted = run(with_engine);
  EXPECT_EQ(base, faulted);
}

}  // namespace
}  // namespace hlsav::sim
