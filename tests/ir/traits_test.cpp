// Op-trait table tests: the per-kind facts every layer reads from
// ir::kOpTraits / ir::kBinTraits must agree with each other, with what
// the printer shows, and with the designs the front end builds.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "apps/appbuild.h"
#include "apps/edge.h"
#include "assertions/options.h"
#include "assertions/synthesize.h"
#include "ir/ir.h"
#include "sched/schedule.h"

namespace hlsav::ir {
namespace {

constexpr OpKind kAssertionKinds[] = {OpKind::kAssert, OpKind::kAssertTap,
                                      OpKind::kAssertFailWire, OpKind::kAssertCycles};

TEST(OpTraits, NamesAreUniqueAndNonEmpty) {
  std::set<std::string> op_names;
  for (const OpTraits& t : kOpTraits) {
    ASSERT_NE(t.name, nullptr);
    EXPECT_FALSE(std::string(t.name).empty());
    EXPECT_TRUE(op_names.insert(t.name).second) << "duplicate op name " << t.name;
  }
  std::set<std::string> bin_names;
  for (const BinTraits& t : kBinTraits) {
    ASSERT_NE(t.name, nullptr);
    EXPECT_FALSE(std::string(t.name).empty());
    EXPECT_TRUE(bin_names.insert(t.name).second) << "duplicate bin name " << t.name;
    EXPECT_FALSE(std::string(t.verilog).empty()) << t.name;
  }
}

TEST(OpTraits, NamesAreWhatPrintDesignPrints) {
  Design d;
  d.name = "traits";
  MemId mem = d.add_memory("m", "p", 32, false, 4);
  StreamId st = d.add_stream("s", 32);
  d.extern_funcs.push_back(ExternFunc{"ext", 32, false, {32}});
  AssertionRecord rec;
  rec.id = 7;
  d.assertions.push_back(rec);

  Process& p = d.add_process("p");
  RegId a = p.add_reg("a", 32, false);
  RegId flag = p.add_reg("flag", 1, false);
  BlockId entry = p.add_block("entry");
  p.entry = entry;
  std::vector<Op>& ops = p.block(entry).ops;
  auto add = [&ops, mem](OpKind k) -> Op& {
    Op op;
    op.kind = k;
    op.assert_id = 7;
    op.mem = k == OpKind::kLoad || k == OpKind::kStore ? mem : kNoMem;
    ops.push_back(std::move(op));
    return ops.back();
  };
  for (const BinTraits& t : kBinTraits) {
    Op& op = add(OpKind::kBin);
    op.bin = t.kind;
    op.dest = t.is_comparison ? flag : a;
    op.args = {Operand::make_reg(a), Operand::make_reg(a)};
  }
  for (const OpTraits& t : kOpTraits) {
    // kBin, kUn and kResize print their sub-kind (covered above / fixed
    // mnemonics), not the op-kind name.
    if (t.kind == OpKind::kBin || t.kind == OpKind::kUn || t.kind == OpKind::kResize) continue;
    Op& op = add(t.kind);
    op.stream = st;
    op.callee = "ext";
    if (t.has_dest) op.dest = a;
    op.args = {Operand::make_reg(a), Operand::make_reg(a)};
    if (t.kind == OpKind::kCopy || t.kind == OpKind::kLoad || t.kind == OpKind::kStreamWrite ||
        t.kind == OpKind::kAssert || t.kind == OpKind::kAssertFailWire ||
        t.kind == OpKind::kCallExtern) {
      op.args.resize(1);
    }
  }

  const std::string text = print_process(d, p);
  for (const BinTraits& t : kBinTraits) {
    std::string reg = t.is_comparison ? "%flag" : "%a";
    EXPECT_NE(text.find("    " + reg + " = " + t.name + " %a:32, %a:32\n"), std::string::npos)
        << t.name << "\n" << text;
  }
  for (const OpTraits& t : kOpTraits) {
    if (t.kind == OpKind::kBin || t.kind == OpKind::kUn || t.kind == OpKind::kResize) continue;
    std::string prefix = t.has_dest ? "    %a = " : "    ";
    EXPECT_NE(text.find(prefix + t.name + " "), std::string::npos) << t.name << "\n" << text;
  }
}

TEST(OpTraits, ZeroCostOpsAreFreeSideEffectingWires) {
  for (const OpTraits& t : kOpTraits) {
    if (!t.zero_cost) continue;
    EXPECT_EQ(t.depth, 0u) << t.name;
    EXPECT_EQ(t.latency, 0u) << t.name;
    EXPECT_TRUE(t.side_effect) << t.name;
    EXPECT_TRUE(t.wiring) << t.name;
  }
  for (OpKind k : kAssertionKinds) EXPECT_TRUE(op_traits(k).zero_cost) << op_traits(k).name;
}

TEST(OpTraits, ExactlyTheSixCompareKindsAreComparisons) {
  const std::set<BinKind> cmp = {BinKind::kCmpEq,  BinKind::kCmpNe,  BinKind::kCmpLtU,
                                 BinKind::kCmpLtS, BinKind::kCmpLeU, BinKind::kCmpLeS};
  for (const BinTraits& t : kBinTraits) {
    EXPECT_EQ(t.is_comparison, cmp.contains(t.kind)) << t.name;
    EXPECT_EQ(bin_result_width(t.kind, 32), t.is_comparison ? 1u : 32u) << t.name;
    Op op;
    op.kind = OpKind::kBin;
    op.bin = t.kind;
    EXPECT_EQ(op.is_comparison(), t.is_comparison) << t.name;
  }
  for (const OpTraits& t : kOpTraits) {
    if (t.kind == OpKind::kBin) continue;
    Op op;
    op.kind = t.kind;
    op.bin = BinKind::kCmpEq;  // ignored outside kBin
    EXPECT_FALSE(op.is_comparison()) << t.name;
  }
}

TEST(OpTraits, SchedulerGivesAssertionOpsNoDepth) {
  Process p;
  p.add_reg("c", 1, false);
  for (OpKind k : kAssertionKinds) {
    Op op;
    op.kind = k;
    op.args = {Operand::make_reg(0)};
    EXPECT_EQ(sched::op_depth(p, op), 0u) << op_traits(k).name;
    EXPECT_EQ(op.latency(), 0u) << op_traits(k).name;
  }
}

TEST(OpTraits, LoweredDesignsWriteDestExactlyWhenTheTableSaysSo) {
  std::unique_ptr<apps::CompiledApp> app =
      apps::compile_app("edge", "edge.c", apps::edge::hlsc_source(32, 24));
  std::vector<Design> designs;
  designs.push_back(app->design.clone());  // still holds kAssert ops
  for (const assertions::Options& opt :
       {assertions::Options::ndebug(), assertions::Options::unoptimized(),
        assertions::Options::optimized()}) {
    designs.push_back(app->design.clone());
    (void)assertions::synthesize(designs.back(), opt);
  }
  for (const Design& d : designs) {
    for (const auto& p : d.processes) {
      for (const BasicBlock& b : p->blocks) {
        for (const Op& op : b.ops) {
          EXPECT_EQ(op.dest != kNoReg, op_traits(op.kind).has_dest)
              << p->name << ": " << op_traits(op.kind).name;
        }
      }
    }
  }
}

}  // namespace
}  // namespace hlsav::ir
