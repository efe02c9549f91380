// Livelock proofs from the faulted CFG (sim::mark_traps).
//
// A block is a trap when the process, once there, can never return and
// can never do anything observable. The unit tests build block words by
// hand (stuck branches, skipped blocks) on small designs and check which
// blocks carry kBlockTrap: the positives are the shapes 3DES's
// hang-timeout sites take, the negatives each break one premise of the
// proof. The run tests check what a trapped process looks like from
// outside: its consumer starves, and the hang is a proven livelock.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "apps/appbuild.h"
#include "apps/des.h"
#include "assertions/options.h"
#include "assertions/synthesize.h"
#include "common/test_util.h"
#include "sim/compiled.h"
#include "sim/simulator.h"

namespace hlsav::sim {
namespace {

using hlsav::testing::compile;

ir::BlockId block_id(const ir::Process& p, const std::string& name) {
  for (const ir::BasicBlock& b : p.blocks) {
    if (b.name == name) return b.id;
  }
  ADD_FAILURE() << "no block " << name;
  return ir::kNoBlock;
}

/// Block words with the given stuck-taken and skipped blocks, after
/// mark_traps; returns the names of the trap blocks.
std::vector<std::string> traps(const ir::Process& p, const std::vector<std::string>& stuck_taken,
                               const std::vector<std::string>& skipped) {
  std::vector<std::uint64_t> words(p.blocks.size(), kBranchFree);
  for (const std::string& b : stuck_taken) words[block_id(p, b)] = kBranchTaken;
  for (const std::string& b : skipped) words[block_id(p, b)] |= kBlockSkip;
  mark_traps(TrapIndex(p), words.data());
  std::vector<std::string> out;
  for (const ir::BasicBlock& b : p.blocks) {
    if ((words[b.id] & kBlockTrap) != 0) out.push_back(b.name);
  }
  return out;
}

using Names = std::vector<std::string>;

// entry, for_header1, for_body2, for_exit3.
const char* kLoopSrc = R"(
  void f(stream_in<32> in, stream_out<32> out) {
    uint32 v = stream_read(in);
    uint32 acc = 0;
    for (uint32 j = 0; j < 50; j++) {
      acc = acc + v;
    }
    stream_write(out, acc);
  }
)";

TEST(Trap, UnfaultedLoopIsNoTrap) {
  auto c = compile(kLoopSrc);
  EXPECT_EQ(traps(c->process("f"), {}, {}), Names{});
}

TEST(Trap, StuckTakenLoopHeaderTrapsHeaderAndBody) {
  auto c = compile(kLoopSrc);
  EXPECT_EQ(traps(c->process("f"), {"for_header1"}, {}), (Names{"for_header1", "for_body2"}));
}

TEST(Trap, SkippedBodyHoldingTheCounterIsAStableExitTrap) {
  // The header stays free, so plain reachability sees its exit edge. The
  // skipped body held the only write of `j`, so the header's test
  // `j < 50` reads the same value on every pass: once in the body, the
  // process never leaves. The header itself is no trap (it may be
  // entered with the test false).
  auto c = compile(kLoopSrc);
  EXPECT_EQ(traps(c->process("f"), {}, {"for_body2"}), Names{"for_body2"});
}

TEST(Trap, SkippedCounterUpdateInAnOuterLoopExitBlock) {
  // for_exit6 (the inner loop's exit) holds the outer step `i++`.
  auto c = compile(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 v = stream_read(in);
      uint32 acc = 0;
      for (uint32 i = 0; i < 4; i++) {
        for (uint32 j = 0; j < 8; j++) {
          acc = acc + v;
        }
      }
      stream_write(out, acc);
    }
  )");
  const ir::Process& p = c->process("f");
  ASSERT_EQ(p.blocks[block_id(p, "for_exit6")].term.on_true, block_id(p, "for_header1"));
  EXPECT_EQ(traps(p, {}, {"for_exit6"}), Names{"for_body2"});
  // Skipping the inner body instead traps the inner loop only.
  EXPECT_EQ(traps(p, {}, {"for_body5"}), Names{"for_body5"});
}

TEST(Trap, ForeverLoopOnAnImmediateConditionIsATrap) {
  // then1 and merge2 can reach nothing but the loop either, but only
  // trap sites are flagged.
  auto c = compile(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 v = stream_read(in);
      stream_write(out, v);
      if (v > 3) {
        v = v + 2;
      }
      for (;;) {
        v = v + 1;
      }
    }
  )");
  EXPECT_EQ(traps(c->process("f"), {}, {}), (Names{"for_header3", "for_body4"}));
}

TEST(Trap, TrapSitesAreLoopHeadersAndTheirInLoopSuccessors) {
  auto c = compile(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 v = stream_read(in);
      uint32 acc = 0;
      for (uint32 i = 0; i < 4; i++) {
        for (uint32 j = 0; j < 8; j++) {
          if (v > 3) {
            acc = acc + v;
          }
        }
      }
      stream_write(out, acc);
    }
  )");
  const ir::Process& p = c->process("f");
  const std::vector<bool> site = trap_sites(p);
  Names names;
  for (const ir::BasicBlock& b : p.blocks) {
    if (site[b.id]) names.push_back(b.name);
  }
  // Not the exits (for_exit6 leads back to for_header1 only through the
  // outer loop), and not the `if` inside the inner body.
  EXPECT_EQ(names, (Names{"for_header1", "for_body2", "for_header4", "for_body5"}));
}

TEST(Trap, LoopHoldingAStoreIsNoTrap) {
  auto c = compile(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 buf[4];
      uint32 v = stream_read(in);
      uint32 acc = 0;
      for (uint32 j = 0; j < 50; j++) {
        acc = acc + v;
        buf[j & 3] = acc;
      }
      stream_write(out, acc + buf[1]);
    }
  )");
  EXPECT_EQ(traps(c->process("f"), {"for_header1"}, {}), Names{});
  // Skipping the body hollows the store too: then it is a trap.
  EXPECT_EQ(traps(c->process("f"), {}, {"for_body2"}), Names{"for_body2"});
}

TEST(Trap, LoopHoldingAnAssertionIsNoTrap) {
  auto c = compile(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 v = stream_read(in);
      uint32 acc = 0;
      for (uint32 j = 0; j < 50; j++) {
        acc = acc + v;
        assert(acc >= v);
      }
      stream_write(out, acc);
    }
  )");
  EXPECT_EQ(traps(c->process("f"), {"for_header1"}, {}), Names{});
}

TEST(Trap, TripleDesOutputLoopHoldsItsAssertionTaps) {
  // 3DES's `branch stuck taken in 'des3' block 'for_header25'` site: the
  // loop emitting the characters taps both assertions (and writes the
  // text stream), so the site stays `detected`, never a livelock.
  constexpr std::array<std::uint64_t, 3> keys = {0x0123456789ABCDEFull, 0x23456789ABCDEF01ull,
                                                 0x456789ABCDEF0123ull};
  auto app = apps::compile_app("des3", "des3.c", apps::des::hlsc_decrypt_source(keys));
  ir::Design d = app->design.clone();
  assertions::synthesize(d, assertions::Options::optimized());
  const ir::Process& p = *d.find_process("des3");
  EXPECT_EQ(traps(p, {"for_header25"}, {}), Names{});
  // The other stuck-taken headers and the skipped counter updates of
  // its hang-timeout sites are traps.
  EXPECT_EQ(traps(p, {"for_header4"}, {}), (Names{"for_header4", "for_body5"}));
  EXPECT_EQ(traps(p, {}, {"for_body26"}), Names{"for_body26"});
  EXPECT_EQ(traps(p, {}, {"for_exit12"}), Names{"for_body8"});
  EXPECT_EQ(traps(p, {}, {"for_exit21"}), Names{"for_body11"});
}

TEST(Trap, LoopHoldingAnExternCallIsNoTrap) {
  auto c = compile(R"(
    extern uint32 accel(uint32 v);
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 v = stream_read(in);
      uint32 acc = 0;
      for (uint32 j = 0; j < 50; j++) {
        acc = accel(acc);
      }
      stream_write(out, acc);
    }
  )");
  EXPECT_EQ(traps(c->process("f"), {"for_header1"}, {}), Names{});
}

TEST(Trap, ExitConditionOnARegisterTheLoopStillWritesIsNoTrap) {
  // Skipping the `then` block leaves the counter update in the merge
  // block: the header's test still changes.
  auto c = compile(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 v = stream_read(in);
      uint32 acc = 0;
      for (uint32 j = 0; j < 8; j++) {
        if (v > 3) {
          acc = acc + 1;
        }
      }
      stream_write(out, acc);
    }
  )");
  const ir::Process& p = c->process("f");
  std::size_t thens = 0;
  for (const ir::BasicBlock& b : p.blocks) {
    if (b.name.rfind("then", 0) != 0) continue;
    EXPECT_EQ(traps(p, {}, {b.name}), Names{}) << b.name;
    ++thens;
  }
  EXPECT_EQ(thens, 1u);
}

TEST(Trap, ExitConditionFedByALoadIsNoTrap) {
  // The table is never stored to, but a load never counts as stable.
  auto c = compile(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      const uint32 tbl[4] = {1, 2, 3, 0};
      uint32 k = stream_read(in);
      uint32 acc = 0;
      while (tbl[k & 3] != 0) {
        acc = acc + 1;
      }
      stream_write(out, acc);
    }
  )");
  EXPECT_EQ(traps(c->process("f"), {}, {}), Names{});
}

TEST(Trap, BodyWithTwoPredecessorsIsNoStableExitTrap) {
  // An extra edge from the entry block into the body: the body can be
  // entered without the header's test having chosen it.
  auto c = compile(kLoopSrc);
  ir::Process& p = c->process("f");
  ASSERT_EQ(traps(p, {}, {"for_body2"}), Names{"for_body2"});
  ir::BasicBlock& entry = p.block(p.entry);
  ASSERT_EQ(entry.term.kind, ir::TermKind::kJump);
  ir::RegId v = ir::kNoReg;
  for (const ir::Register& r : p.regs) {
    if (r.name == "v") v = r.id;
  }
  ASSERT_NE(v, ir::kNoReg);
  entry.term = ir::Terminator{ir::TermKind::kBranch, ir::Operand::make_reg(v),
                              block_id(p, "for_body2"), entry.term.on_true};
  EXPECT_EQ(traps(p, {}, {"for_body2"}), Names{});
}

// ------------------------------------------------------------- runs --

TEST(Trap, TrappedProducerStarvesItsConsumer) {
  auto c = compile(R"(
    void producer(stream_in<32> in, stream_out<32> link) {
      for (uint32 i = 0; i < 4; i++) {
        uint32 v = stream_read(in);
        uint32 acc = 0;
        for (uint32 j = 0; j < 5; j++) {
          acc = acc + v;
        }
        stream_write(link, acc);
      }
    }
    void consumer(stream_in<32> link, stream_out<32> out) {
      for (uint32 i = 0; i < 4; i++) {
        stream_write(out, stream_read(link) + 1);
      }
    }
  )");
  ir::Design d = c->design.clone();
  d.connect_consumer(d.find_process("producer")->find_port("link")->stream, "consumer", "link");
  assertions::synthesize(d, assertions::Options::ndebug());
  ir::verify(d);
  sched::DesignSchedule schedule = sched::schedule_design(d);
  ExternRegistry externs;
  const ir::Process& producer = *d.find_process("producer");

  SimOptions so;
  so.max_cycles = 50'000'000;  // the proof must not need the backstop
  so.faults.add(FaultSpec::fsm_stuck_branch("producer", block_id(producer, "for_header4"), true));
  Simulator s(d, schedule, externs, so);
  s.feed("producer.in", {1, 2, 3, 4});
  RunResult r = s.run();

  ASSERT_EQ(r.status, RunStatus::kHung);
  ASSERT_TRUE(r.hang.has_value());
  EXPECT_EQ(r.hang->kind, HangKind::kLivelock);
  EXPECT_LT(r.cycles, 100u);
  ASSERT_EQ(r.hang->waiters.size(), 2u) << r.hang_report;
  const HangWaiter& trapped = r.hang->waiters[0];
  EXPECT_EQ(trapped.process, "producer");
  EXPECT_EQ(trapped.reason, BlockReason::kTrap);
  EXPECT_EQ(trapped.block, "for_header4");
  EXPECT_EQ(trapped.loc.line, 6u);  // the inner `for`
  const HangWaiter& starved = r.hang->waiters[1];
  EXPECT_EQ(starved.process, "consumer");
  EXPECT_EQ(starved.reason, BlockReason::kStreamEmpty);
  EXPECT_EQ(starved.waits_on, "producer");
  EXPECT_NE(r.hang_report.find("process 'producer' stuck at line 6: livelock in block "
                               "'for_header4'"),
            std::string::npos)
      << r.hang_report;
}

TEST(Trap, ProofsNeedAnArmedFault) {
  // The same forever loop with no fault armed runs to the backstop: the
  // golden run of a campaign never proves anything.
  auto c = compile(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 v = stream_read(in);
      stream_write(out, v);
      for (;;) {
        v = v + 1;
      }
    }
  )");
  ir::Design d = c->design.clone();
  assertions::synthesize(d, assertions::Options::ndebug());
  sched::DesignSchedule schedule = sched::schedule_design(d);
  ExternRegistry externs;
  for (bool armed : {false, true}) {
    SimOptions so;
    so.max_cycles = 2'000;
    // A fault on a block the run never reaches arms the proofs.
    if (armed) so.faults.add(FaultSpec::fsm_skip_block("f", 999));
    Simulator s(d, schedule, externs, so);
    s.feed("f.in", {7});
    RunResult r = s.run();
    ASSERT_EQ(r.status, RunStatus::kHung);
    ASSERT_TRUE(r.hang.has_value());
    EXPECT_EQ(r.hang->kind, armed ? HangKind::kLivelock : HangKind::kCycleLimit);
    EXPECT_EQ(r.cycles > so.max_cycles, !armed) << r.cycles;
    EXPECT_EQ(s.received("f.out"), std::vector<std::uint64_t>{7});
  }
}

}  // namespace
}  // namespace hlsav::sim
