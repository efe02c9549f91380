#include <gtest/gtest.h>

#include "common/test_util.h"
#include "ir/ir.h"

namespace hlsav::ir {
namespace {

using hlsav::testing::compile;

/// Builds a minimal valid design by hand for mutation tests.
Design make_valid() {
  Design d;
  d.name = "v";
  Process& p = d.add_process("p");
  StreamId s = d.add_stream("p.in", 32);
  p.ports.push_back(StreamPort{"in", true, 32, s});
  d.stream(s).consumer = StreamEndpoint{StreamEndpoint::Kind::kProcess, "p", "in"};
  d.connect_cpu_producer(s);

  RegId x = p.add_reg("x", 32, false);
  BlockId b = p.add_block("entry");
  p.entry = b;
  Op read;
  read.kind = OpKind::kStreamRead;
  read.stream = s;
  read.dest = x;
  p.block(b).ops.push_back(read);
  p.block(b).term.kind = TermKind::kReturn;
  return d;
}

TEST(Verify, AcceptsValidDesign) {
  Design d = make_valid();
  EXPECT_NO_THROW(verify(d));
}

TEST(Verify, RejectsWidthMismatch) {
  Design d = make_valid();
  // Make the destination register the wrong width for the stream.
  d.processes[0]->regs[0].width = 16;
  EXPECT_THROW(verify(d), InternalError);
}

TEST(Verify, AcceptsA64BitRegister) {
  Design d = make_valid();
  d.processes[0]->add_reg("wide", 64, false);
  EXPECT_NO_THROW(verify(d));
}

TEST(Verify, RejectsARegisterWiderThan64Bits) {
  Design d = make_valid();
  d.processes[0]->add_reg("too_wide", 65, false);
  try {
    verify(d);
    FAIL() << "a 65-bit register verified";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("register 'too_wide' has bad width"), std::string::npos)
        << e.what();
  }
}

TEST(Verify, RejectsBadBranchTarget) {
  Design d = make_valid();
  Process& p = *d.processes[0];
  p.block(0).term.kind = TermKind::kJump;
  p.block(0).term.on_true = 99;
  EXPECT_THROW(verify(d), InternalError);
}

TEST(Verify, RejectsBranchWithoutCondition) {
  Design d = make_valid();
  Process& p = *d.processes[0];
  BlockId b2 = p.add_block("b2");
  p.block(0).term = Terminator{TermKind::kBranch, Operand::none(), b2, b2};
  EXPECT_THROW(verify(d), InternalError);
}

TEST(Verify, RejectsStoreIntoRom) {
  Design d = make_valid();
  MemId m = d.add_memory("p.rom", "p", 8, false, 4);
  d.memory(m).role = MemRole::kRom;
  d.memory(m).init.assign(4, BitVector(8));
  Process& p = *d.processes[0];
  RegId v = p.add_reg("v", 8, false);
  Op st;
  st.kind = OpKind::kStore;
  st.mem = m;
  st.args.push_back(Operand::make_imm(BitVector::from_u64(32, 0)));
  st.args.push_back(Operand::make_reg(v));
  p.block(0).ops.push_back(st);
  EXPECT_THROW(verify(d), InternalError);
}

TEST(Verify, RejectsRomWithoutContents) {
  Design d = make_valid();
  MemId m = d.add_memory("p.rom", "p", 8, false, 4);
  d.memory(m).role = MemRole::kRom;
  EXPECT_THROW(verify(d), InternalError);
}

TEST(Verify, RejectsReplicaShapeMismatch) {
  Design d = make_valid();
  MemId orig = d.add_memory("p.a", "p", 8, false, 4);
  MemId rep = d.add_memory("p.a_rep", "p", 8, false, 8);  // wrong size
  d.memory(rep).role = MemRole::kReplica;
  d.memory(rep).replica_of = orig;
  EXPECT_THROW(verify(d), InternalError);
}

TEST(Verify, RejectsUnboundPort) {
  Design d = make_valid();
  d.processes[0]->ports.push_back(StreamPort{"dangling", true, 32, kNoStream});
  EXPECT_THROW(verify(d), InternalError);
}

TEST(Verify, RejectsUnknownExternCall) {
  Design d = make_valid();
  Process& p = *d.processes[0];
  RegId r = p.add_reg("r", 32, false);
  Op call;
  call.kind = OpKind::kCallExtern;
  call.callee = "nope";
  call.dest = r;
  p.block(0).ops.push_back(call);
  EXPECT_THROW(verify(d), InternalError);
}

TEST(Verify, RejectsBadAssertId) {
  Design d = make_valid();
  Process& p = *d.processes[0];
  Op a;
  a.kind = OpKind::kAssert;
  a.assert_id = 42;  // not in the catalogue
  a.args.push_back(Operand::make_imm(BitVector::from_bool(true)));
  p.block(0).ops.push_back(a);
  EXPECT_THROW(verify(d), InternalError);
}

TEST(Verify, AcceptsLoweredApplications) {
  auto c = compile(R"(
    extern uint32 myext(uint32 v);
    void a(stream_in<32> in, stream_out<32> out) {
      uint32 buf[16];
      uint32 acc;
      acc = 0;
      for (uint32 i = 0; i < 16; i++) {
        buf[i] = stream_read(in);
        assert(buf[i] != 0);
        acc = acc + buf[i];
      }
      stream_write(out, myext(acc));
    }
  )");
  EXPECT_NO_THROW(verify(c->design));
}

}  // namespace
}  // namespace hlsav::ir
