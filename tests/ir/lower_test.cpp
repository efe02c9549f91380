#include <gtest/gtest.h>

#include "common/test_util.h"
#include "ir/lower.h"

namespace hlsav::ir {
namespace {

using hlsav::testing::compile;

TEST(Lower, SimpleProcessShape) {
  auto c = compile(R"(
    void loopback(stream_in<32> in, stream_out<32> out) {
      uint32 x;
      x = stream_read(in);
      stream_write(out, x);
    }
  )");
  Process& p = c->process("loopback");
  ASSERT_EQ(p.ports.size(), 2u);
  EXPECT_TRUE(p.ports[0].is_input);
  EXPECT_FALSE(p.ports[1].is_input);
  // Every port got a CPU-facing stream.
  ASSERT_EQ(c->design.streams.size(), 2u);
  EXPECT_EQ(c->design.streams[0].producer.kind, StreamEndpoint::Kind::kCpu);
  EXPECT_EQ(c->design.streams[1].consumer.kind, StreamEndpoint::Kind::kCpu);
  verify(c->design);
}

TEST(Lower, ArrayBecomesMemory) {
  auto c = compile(R"(
    void f(stream_in<16> in) {
      uint16 buf[64];
      buf[0] = stream_read(in);
    }
  )");
  ASSERT_EQ(c->design.memories.size(), 1u);
  const Memory& m = c->design.memories[0];
  EXPECT_EQ(m.name, "f.buf");
  EXPECT_EQ(m.size, 64u);
  EXPECT_EQ(m.width, 16u);
  EXPECT_EQ(m.role, MemRole::kData);
  verify(c->design);
}

TEST(Lower, ConstArrayBecomesRom) {
  auto c = compile(R"(
    void f(stream_in<8> in, stream_out<8> out) {
      const uint8 lut[4] = {10, 20, 30, 40};
      uint8 i;
      i = stream_read(in);
      stream_write(out, lut[i]);
    }
  )");
  const Memory& m = c->design.memories[0];
  EXPECT_EQ(m.role, MemRole::kRom);
  ASSERT_EQ(m.init.size(), 4u);
  EXPECT_EQ(m.init[2].to_u64(), 30u);
  verify(c->design);
}

TEST(Lower, ReplicatePragmaRecorded) {
  auto c = compile(R"(
    void f(stream_in<16> in) {
      #pragma HLS replicate
      uint16 buf[8];
      buf[0] = stream_read(in);
    }
  )");
  EXPECT_TRUE(c->design.memories[0].replicate_for_assertions);
}

TEST(Lower, IfProducesDiamond) {
  auto c = compile(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 x;
      x = stream_read(in);
      if (x > 10) {
        x = 10;
      } else {
        x = 0;
      }
      stream_write(out, x);
    }
  )");
  Process& p = c->process("f");
  // entry, then, else, merge (at least).
  EXPECT_GE(p.blocks.size(), 4u);
  const BasicBlock& entry = p.block(p.entry);
  EXPECT_EQ(entry.term.kind, TermKind::kBranch);
  verify(c->design);
}

TEST(Lower, ForLoopCanonicalShape) {
  auto c = compile(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 acc;
      acc = 0;
      for (uint32 i = 0; i < 8; i++) {
        acc = acc + i;
      }
      stream_write(out, acc);
    }
  )");
  Process& p = c->process("f");
  // Find the header: a block with a branch whose true target jumps back.
  bool found = false;
  for (const BasicBlock& b : p.blocks) {
    if (b.term.kind != TermKind::kBranch) continue;
    const BasicBlock& body = p.block(b.term.on_true);
    if (body.term.kind == TermKind::kJump && body.term.on_true == b.id) found = true;
  }
  EXPECT_TRUE(found) << print_process(c->design, p);
  verify(c->design);
}

TEST(Lower, PipelinedLoopRecorded) {
  auto c = compile(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 acc;
      acc = 0;
      #pragma HLS pipeline
      for (uint32 i = 0; i < 8; i++) {
        acc = acc + i;
      }
      stream_write(out, acc);
    }
  )");
  Process& p = c->process("f");
  ASSERT_EQ(p.loops.size(), 1u);
  EXPECT_TRUE(p.loops[0].pipelined);
  const BasicBlock& body = p.block(p.loops[0].body);
  EXPECT_EQ(body.term.kind, TermKind::kJump);
  EXPECT_EQ(body.term.on_true, p.loops[0].header);
}

TEST(Lower, PipelineWithControlFlowWarnsAndFallsBack) {
  auto c = compile(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 acc;
      acc = 0;
      #pragma HLS pipeline
      for (uint32 i = 0; i < 8; i++) {
        if (i > 4) { acc = acc + i; }
      }
      stream_write(out, acc);
    }
  )");
  Process& p = c->process("f");
  EXPECT_TRUE(p.loops.empty());
  bool warned = false;
  for (const auto& d : c->diags.diagnostics()) {
    if (d.severity == Severity::kWarning) warned = true;
  }
  EXPECT_TRUE(warned);
}

TEST(Lower, AssertTagsConditionSlice) {
  auto c = compile(R"(
    void f(stream_in<32> in) {
      uint32 a[4];
      uint32 i;
      i = stream_read(in);
      a[0] = i;
      assert(a[0] > 0);
    }
  )");
  Process& p = c->process("f");
  unsigned tagged_loads = 0;
  unsigned tagged_cmps = 0;
  unsigned assert_ops = 0;
  for (const BasicBlock& b : p.blocks) {
    for (const Op& op : b.ops) {
      if (op.assert_tag == kNoAssertTag) continue;
      if (op.kind == OpKind::kLoad) ++tagged_loads;
      if (op.kind == OpKind::kBin) ++tagged_cmps;
      if (op.kind == OpKind::kAssert) ++assert_ops;
    }
  }
  EXPECT_EQ(tagged_loads, 1u);
  EXPECT_EQ(tagged_cmps, 1u);
  EXPECT_EQ(assert_ops, 1u);
  // The app's own store is not tagged.
  ASSERT_EQ(c->design.assertions.size(), 1u);
  EXPECT_EQ(c->design.assertions[0].process, "f");
  EXPECT_EQ(c->design.assertions[0].condition_text, "a[0] > 0");
}

TEST(Lower, BreakAndContinue) {
  auto c = compile(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 acc;
      acc = 0;
      for (uint32 i = 0; i < 100; i++) {
        if (i == 50) { break; }
        if (i % 2 == 0) { continue; }
        acc = acc + i;
      }
      stream_write(out, acc);
    }
  )");
  verify(c->design);
}

TEST(Lower, LogicalOpsNonShortCircuit) {
  auto c = compile(R"(
    void f(stream_in<32> in, stream_out<1> out) {
      uint32 j;
      j = stream_read(in);
      stream_write(out, j > 1 && j < 9);
    }
  )");
  Process& p = c->process("f");
  unsigned and_ops = 0;
  for (const BasicBlock& b : p.blocks) {
    for (const Op& op : b.ops) {
      if (op.kind == OpKind::kBin && op.bin == BinKind::kAnd) ++and_ops;
    }
  }
  EXPECT_EQ(and_ops, 1u);
  verify(c->design);
}

TEST(Lower, ExternRegistered) {
  auto c = compile(R"(
    extern uint32 clz32(uint32 v);
    void f(stream_in<32> in, stream_out<32> out) {
      stream_write(out, clz32(stream_read(in)));
    }
  )");
  ASSERT_EQ(c->design.extern_funcs.size(), 1u);
  EXPECT_EQ(c->design.extern_funcs[0].name, "clz32");
  verify(c->design);
}

TEST(Lower, DuplicateInstantiationRejected) {
  auto c = compile(R"(
    void f(stream_in<32> in) { uint32 x; x = stream_read(in); }
  )");
  DiagnosticEngine diags2(&c->sm);
  Process* again = lower_process(c->design, *c->program, *c->program->functions[0], c->sm, diags2);
  EXPECT_EQ(again, nullptr);
  EXPECT_TRUE(diags2.has_errors());
}

TEST(Lower, ConstEval) {
  SourceManager sm;
  DiagnosticEngine diags(&sm);
  auto prog = lang::parse_source(sm, diags, "t.c", R"(
    void f(stream_in<32> in) {
      const uint32 c = (1 << 4) + 3;
      uint32 x;
      x = c;
    }
  )");
  ASSERT_FALSE(diags.has_errors());
  ASSERT_TRUE(lang::analyze(*prog, sm, diags).ok);
  const lang::Stmt& decl = *prog->functions[0]->body[0];
  auto v = eval_const_expr(*decl.decl_init[0]);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->to_u64(), 19u);
}

TEST(Lower, DesignClone) {
  auto c = compile(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 x;
      x = stream_read(in);
      assert(x > 0);
      stream_write(out, x);
    }
  )");
  Design copy = c->design.clone();
  EXPECT_EQ(copy.processes.size(), c->design.processes.size());
  EXPECT_EQ(copy.assertions.size(), 1u);
  // Mutating the copy leaves the original untouched.
  copy.find_process("f")->regs[0].name = "renamed";
  EXPECT_NE(c->design.find_process("f")->regs[0].name, "renamed");
  verify(copy);
}

}  // namespace
}  // namespace hlsav::ir
