// Sequential-scheduler tests: these pin down the timing model that the
// paper's Table 3 latencies are later derived from (chaining, synchronous
// block-RAM reads, single application port, exclusive stream states, and
// the assert-tag state-sharing rule).
#include <gtest/gtest.h>

#include "common/test_util.h"
#include "sched/schedule.h"

namespace hlsav::sched {
namespace {

using hlsav::testing::compile;

/// Schedules the given process and returns its schedule.
ProcessSchedule sched_of(hlsav::testing::Compiled& c, const std::string& name,
                         const SchedOptions& opts = {}) {
  ir::verify(c.design);
  return schedule_process(c.design, c.process(name), opts);
}

TEST(SequentialSched, ChainedAddsShareAState) {
  auto c = compile(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 a;
      a = stream_read(in);
      uint32 x;
      x = a + 1 + 2 + 3;
      stream_write(out, x);
    }
  )");
  ProcessSchedule s = sched_of(*c, "f");
  const ir::Process& p = c->process("f");
  // Entry block: stream read (exclusive state), then the three adds and
  // the copy chain into a single following state, then the write.
  const ir::BasicBlock& entry = p.block(p.entry);
  EXPECT_EQ(s.of(entry.id).num_states, 3u) << print_schedule(c->design, s);
}

TEST(SequentialSched, ChainDepthLimitSplitsStates) {
  auto c = compile(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 a;
      a = stream_read(in);
      uint32 x;
      x = a + 1 + 2 + 3 + 4 + 5 + 6;
      stream_write(out, x);
    }
  )");
  SchedOptions opts;
  opts.chain_depth = 3;
  ProcessSchedule s = sched_of(*c, "f", opts);
  const ir::Process& p = c->process("f");
  // 6 chained adds at depth limit 3 -> 2 compute states (+ read + write).
  EXPECT_EQ(s.of(p.entry).num_states, 4u) << print_schedule(c->design, s);
}

TEST(SequentialSched, SynchronousLoadAddsACycle) {
  auto c = compile(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 buf[4];
      buf[0] = stream_read(in);
      uint32 y;
      y = buf[1] + 1;
      stream_write(out, y);
    }
  )");
  ProcessSchedule s = sched_of(*c, "f");
  const ir::Process& p = c->process("f");
  const ir::BasicBlock& entry = p.block(p.entry);
  const BlockSchedule& bs = s.of(entry.id);
  // read(s0), store(s1), load issues s2 (port free only after store),
  // add chains at s3 when data arrives, write s4.
  unsigned load_state = 0;
  unsigned store_state = 0;
  unsigned add_state = 0;
  for (std::size_t i = 0; i < entry.ops.size(); ++i) {
    if (entry.ops[i].kind == ir::OpKind::kLoad) load_state = bs.op_state[i];
    if (entry.ops[i].kind == ir::OpKind::kStore) store_state = bs.op_state[i];
    if (entry.ops[i].kind == ir::OpKind::kBin) add_state = bs.op_state[i];
  }
  EXPECT_GT(load_state, store_state);
  EXPECT_EQ(add_state, load_state + 1);
}

TEST(SequentialSched, PortConflictSerializesLoads) {
  auto c = compile(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 buf[4];
      buf[0] = stream_read(in);
      uint32 y;
      y = buf[1] + buf[2];
      stream_write(out, y);
    }
  )");
  ProcessSchedule s = sched_of(*c, "f");
  const ir::Process& p = c->process("f");
  const ir::BasicBlock& entry = p.block(p.entry);
  const BlockSchedule& bs = s.of(entry.id);
  std::vector<unsigned> load_states;
  for (std::size_t i = 0; i < entry.ops.size(); ++i) {
    if (entry.ops[i].kind == ir::OpKind::kLoad) load_states.push_back(bs.op_state[i]);
  }
  ASSERT_EQ(load_states.size(), 2u);
  EXPECT_NE(load_states[0], load_states[1]);
}

TEST(SequentialSched, TwoPortsAllowParallelLoads) {
  auto c = compile(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 buf[4];
      buf[0] = stream_read(in);
      uint32 y;
      y = buf[1] + buf[2];
      stream_write(out, y);
    }
  )");
  SchedOptions opts;
  opts.mem_ports = 2;
  ProcessSchedule s = sched_of(*c, "f", opts);
  const ir::Process& p = c->process("f");
  const ir::BasicBlock& entry = p.block(p.entry);
  const BlockSchedule& bs = s.of(entry.id);
  std::vector<unsigned> load_states;
  for (std::size_t i = 0; i < entry.ops.size(); ++i) {
    if (entry.ops[i].kind == ir::OpKind::kLoad) load_states.push_back(bs.op_state[i]);
  }
  ASSERT_EQ(load_states.size(), 2u);
  EXPECT_EQ(load_states[0], load_states[1]);
}

TEST(SequentialSched, DistinctMemoriesDoNotConflict) {
  auto c = compile(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 a[4];
      uint32 b[4];
      uint32 x;
      x = stream_read(in);
      a[0] = x;
      b[0] = x;
      uint32 y;
      y = a[1] + b[1];
      stream_write(out, y);
    }
  )");
  ProcessSchedule s = sched_of(*c, "f");
  const ir::Process& p = c->process("f");
  const ir::BasicBlock& entry = p.block(p.entry);
  const BlockSchedule& bs = s.of(entry.id);
  std::vector<unsigned> load_states;
  for (std::size_t i = 0; i < entry.ops.size(); ++i) {
    if (entry.ops[i].kind == ir::OpKind::kLoad) load_states.push_back(bs.op_state[i]);
  }
  ASSERT_EQ(load_states.size(), 2u);
  EXPECT_EQ(load_states[0], load_states[1]);
}

TEST(SequentialSched, StreamOpsGetExclusiveStates) {
  auto c = compile(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 x;
      x = stream_read(in);
      stream_write(out, x);
      stream_write(out, x);
    }
  )");
  ProcessSchedule s = sched_of(*c, "f");
  const ir::Process& p = c->process("f");
  const ir::BasicBlock& entry = p.block(p.entry);
  const BlockSchedule& bs = s.of(entry.id);
  std::vector<unsigned> stream_states;
  for (std::size_t i = 0; i < entry.ops.size(); ++i) {
    if (entry.ops[i].is_stream_access()) stream_states.push_back(bs.op_state[i]);
  }
  ASSERT_EQ(stream_states.size(), 3u);
  EXPECT_NE(stream_states[0], stream_states[1]);
  EXPECT_NE(stream_states[1], stream_states[2]);
}

TEST(SequentialSched, InlineAssertOpsDoNotShareAppStates) {
  auto c = compile(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 x;
      x = stream_read(in);
      uint32 y;
      y = x + 1;
      assert(x > 0);
      uint32 z;
      z = y + 2;
      stream_write(out, z);
    }
  )");
  ProcessSchedule s = sched_of(*c, "f");
  const ir::Process& p = c->process("f");
  const ir::BasicBlock& entry = p.block(p.entry);
  const BlockSchedule& bs = s.of(entry.id);
  // No state may contain both tagged (non-load, non-zero-cost) and
  // untagged compute ops.
  std::map<unsigned, int> state_kind;  // 1=app, 2=assert
  for (std::size_t i = 0; i < entry.ops.size(); ++i) {
    const ir::Op& op = entry.ops[i];
    if (op.kind == ir::OpKind::kAssert || op.kind == ir::OpKind::kAssertTap) continue;
    bool tagged = op.assert_tag != ir::kNoAssertTag && op.kind != ir::OpKind::kLoad;
    int kind = tagged ? 2 : 1;
    auto [it, inserted] = state_kind.emplace(bs.op_state[i], kind);
    if (!inserted) {
      EXPECT_EQ(it->second, kind) << print_schedule(c->design, s);
    }
  }
}

TEST(SequentialSched, BranchConditionLatencyExtendsBlock) {
  auto c = compile(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 buf[4];
      buf[0] = stream_read(in);
      uint32 x;
      x = 1;
      while (buf[0] > 0) {
        x = x + 1;
        buf[0] = buf[0] - 1;
      }
      stream_write(out, x);
    }
  )");
  ProcessSchedule s = sched_of(*c, "f");
  const ir::Process& p = c->process("f");
  // The while-header block loads buf[0] (sync, 1 cycle) and compares:
  // at least 2 states.
  for (const ir::BasicBlock& b : p.blocks) {
    if (b.term.kind == ir::TermKind::kBranch) {
      bool has_load = false;
      for (const ir::Op& op : b.ops) has_load |= op.kind == ir::OpKind::kLoad;
      if (has_load) {
        EXPECT_GE(s.of(b.id).num_states, 2u);
      }
    }
  }
}

TEST(SequentialSched, EmptyJumpBlocksTakeNoStates) {
  auto c = compile(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 x;
      x = stream_read(in);
      if (x > 0) {
        x = 1;
      }
      stream_write(out, x);
    }
  )");
  ProcessSchedule s = sched_of(*c, "f");
  const ir::Process& p = c->process("f");
  // The merge block (empty, jump-only) must not add a state; total states
  // stays small.
  unsigned empty_jump_states = 0;
  for (const ir::BasicBlock& b : p.blocks) {
    if (b.ops.empty() && b.term.kind != ir::TermKind::kBranch) {
      empty_jump_states += s.of(b.id).num_states;
    }
  }
  EXPECT_EQ(empty_jump_states, 0u);
}

TEST(SequentialSched, TotalStatesSumsBlocks) {
  auto c = compile(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 x;
      x = stream_read(in);
      stream_write(out, x);
    }
  )");
  ProcessSchedule s = sched_of(*c, "f");
  unsigned sum = 0;
  for (const BlockSchedule& b : s.blocks) sum += b.pipelined ? b.latency : b.num_states;
  EXPECT_EQ(sum, s.total_states);
}

}  // namespace
}  // namespace hlsav::sched
