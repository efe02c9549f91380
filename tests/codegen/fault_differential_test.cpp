// Compiled fault hooks vs the interpreter.
//
// A campaign site arms exactly one fault, and the compiled engine
// applies it itself: skip-block, stuck-branch, narrow-compare and BRAM
// faults through the generated code's fault words, stream and extern
// faults in the simulator callbacks, channel faults where the CPU
// drains its streams. These tests run whole campaigns under both
// engines and require every site's outcome, cycle count and detecting
// assertions to match, the rendered reports to be byte-identical, and
// every compiled-engine site to have actually run compiled. Hand-built
// specs cover the places where the interpreter does *not* apply a fault
// (a bit beyond the memory width, a narrow width at or above the
// operand width, a skip aimed at a pipelined header).
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <string>
#include <vector>

#include "apps/appbuild.h"
#include "apps/bmp.h"
#include "apps/des.h"
#include "apps/edge.h"
#include "apps/loopback.h"
#include "codegen/codegen_test_util.h"
#include "sim/campaign.h"

namespace hlsav::codegen {
namespace {

using assertions::Options;
using Feeds = std::map<std::string, std::vector<std::uint64_t>>;

/// Builds a rig from a source buffer with explicit schedule options
/// (the paper workloads are scheduled with a chain depth of their own).
DiffRig make_scheduled_rig(const std::string& name, const std::string& src,
                           const Options& aopt, unsigned chain_depth) {
  auto app = apps::compile_app(name.substr(0, name.find('.')), name, src);
  DiffRig rig;
  rig.design = app->design.clone();
  assertions::synthesize(rig.design, aopt);
  ir::verify(rig.design);
  sched::SchedOptions so;
  so.chain_depth = chain_depth;
  rig.schedule = sched::schedule_design(rig.design, so);
  rig.prepare_compiled();
  return rig;
}

/// Runs the campaign under both engines and checks the contract. Returns
/// the compiled-engine report for workload-specific checks.
sim::CampaignReport expect_campaigns_agree(const DiffRig& rig, const Feeds& feeds) {
  EXPECT_EQ(rig.prep_error, "");
  sim::CampaignOptions interp_opt;
  interp_opt.threads = 1;
  sim::CampaignReport interp =
      sim::run_campaign(rig.design, rig.schedule, rig.externs, feeds, interp_opt);

  sim::CampaignOptions comp_opt = interp_opt;
  comp_opt.sim.engine = sim::SimEngine::kCompiled;
  comp_opt.sim.compiled = rig.compiled != nullptr ? rig.compiled->handle() : nullptr;
  sim::CampaignReport comp =
      sim::run_campaign(rig.design, rig.schedule, rig.externs, feeds, comp_opt);

  EXPECT_EQ(interp.golden_cycles, comp.golden_cycles);
  EXPECT_EQ(interp.sites_compiled, 0u);
  EXPECT_EQ(comp.sites_run, comp.results.size());
  EXPECT_EQ(comp.sites_compiled, comp.sites_run) << comp.engine_note;
  EXPECT_EQ(comp.engine_note, "");
  EXPECT_EQ(interp.results.size(), comp.results.size());
  for (std::size_t i = 0; i < interp.results.size() && i < comp.results.size(); ++i) {
    const sim::FaultResult& a = interp.results[i];
    const sim::FaultResult& b = comp.results[i];
    const std::string site = "s" + std::to_string(a.site.id) + " " + a.site.describe(rig.design);
    EXPECT_EQ(a.outcome, b.outcome) << site;
    EXPECT_EQ(a.cycles, b.cycles) << site;
    EXPECT_EQ(a.detected_by, b.detected_by) << site;
    EXPECT_TRUE(b.ran_compiled) << site << ": " << b.engine_note;
  }
  EXPECT_EQ(interp.render(rig.design), comp.render(rig.design));
  return comp;
}

std::size_t count_kind(const sim::CampaignReport& r, sim::FaultKind k, bool effectual) {
  std::size_t n = 0;
  for (const sim::FaultResult& f : r.results) {
    if (f.site.kind == k && (!effectual || f.outcome != sim::FaultOutcome::kBenign)) ++n;
  }
  return n;
}

// ---------------------------------------------------- paper workloads --

TEST(FaultDifferential, TripleDesEverySite) {
  HLSAV_REQUIRE_COMPILER();
  std::array<std::uint64_t, 3> keys = {0x0123456789ABCDEFull, 0x23456789ABCDEF01ull,
                                       0x456789ABCDEF0123ull};
  DiffRig rig = make_scheduled_rig("des3.c", apps::des::hlsc_decrypt_source(keys),
                                   Options::optimized(), 6);
  std::vector<std::uint64_t> cipher;
  for (std::uint64_t b : apps::des::pack_text("Differential ABV")) {
    cipher.push_back(apps::des::triple_des_encrypt(b, keys));
  }
  sim::CampaignReport comp =
      expect_campaigns_agree(rig, {{"des3.in", apps::des::to_word_stream(cipher)}});
  EXPECT_EQ(comp.results.size(), 62u);
  // The sites the tentpole targets: livelocks that only the cycle
  // backstop ends.
  EXPECT_GT(comp.count(sim::FaultOutcome::kHangTimeout), 0u);
}

TEST(FaultDifferential, EdgeDetectorBothConfigs) {
  HLSAV_REQUIRE_COMPILER();
  apps::img::Image input = apps::img::synthetic_image(32, 24, 5);
  Feeds feeds{{"edge.in", apps::edge::to_word_stream(input)}};
  for (const Options& o : {Options::unoptimized(), Options::optimized()}) {
    DiffRig rig = make_scheduled_rig("edge.c", apps::edge::hlsc_source(32, 24), o, 16);
    sim::CampaignReport comp = expect_campaigns_agree(rig, feeds);
    EXPECT_GT(comp.results.size(), 0u);
  }
}

TEST(FaultDifferential, ReplicatedLoopbackStagesShareOneFunction) {
  HLSAV_REQUIRE_COMPILER();
  // Identical stages share one emitted function, told apart only by
  // their process index and memory table: faults aimed at one stage
  // (its BRAM, its blocks) must hit that stage alone.
  auto app = apps::loopback::build(4, 6);
  DiffRig rig;
  rig.design = app->design.clone();
  assertions::synthesize(rig.design, Options::optimized());
  ir::verify(rig.design);
  rig.schedule = sched::schedule_design(rig.design);
  rig.prepare_compiled();
  ASSERT_EQ(rig.prep_error, "");
  std::map<std::string, std::size_t> users;
  for (const ProcEmit& pe : rig.compiled->procs()) ++users[pe.symbol];
  EXPECT_LT(users.size(), rig.compiled->procs().size());
  sim::CampaignReport comp =
      expect_campaigns_agree(rig, {{apps::loopback::input_stream(4), {5, 6, 7, 8, 9, 10}}});
  EXPECT_GT(count_kind(comp, sim::FaultKind::kBramBitFlip, true), 0u);
}

// ------------------------------------------------- hook coverage --

TEST(FaultDifferential, LoopbackWithBramStores) {
  HLSAV_REQUIRE_COMPILER();
  DiffRig rig = make_rig(R"(
    void loop(stream_in<32> in, stream_out<32> out) {
      uint32 buf[8];
      for (uint32 i = 0; i < 8; i++) {
        uint32 v = stream_read(in);
        assert(v > 0);
        buf[i & 7] = v;
      }
      for (uint32 j = 0; j < 8; j++) {
        stream_write(out, buf[j]);
      }
    }
  )",
                         Options::unoptimized());
  sim::CampaignReport comp =
      expect_campaigns_agree(rig, {{"loop.in", {1, 2, 3, 4, 5, 6, 7, 8}}});
  // Every BRAM site changes a word the second loop reads back.
  EXPECT_GT(count_kind(comp, sim::FaultKind::kBramBitFlip, true), 0u);
  EXPECT_GT(count_kind(comp, sim::FaultKind::kBramStuckAt, true), 0u);
  EXPECT_GT(count_kind(comp, sim::FaultKind::kFsmStuckBranch, true), 0u);
  EXPECT_GT(count_kind(comp, sim::FaultKind::kFsmSkipBlock, true), 0u);
}

TEST(FaultDifferential, ExternCorruption) {
  HLSAV_REQUIRE_COMPILER();
  DiffRig rig = make_rig(R"(
    extern uint32 accel(uint32 v);
    void f(stream_in<32> in, stream_out<32> out) {
      for (uint32 i = 0; i < 4; i++) {
        uint32 r;
        r = accel(stream_read(in));
        assert(r < 1000);
        stream_write(out, r);
      }
    }
  )",
                         Options::optimized());
  rig.externs.add("accel", [](const std::vector<BitVector>& a) {
    return BitVector::from_u64(32, a[0].to_u64() * 2);
  });
  sim::CampaignReport comp = expect_campaigns_agree(rig, {{"f.in", {10, 20, 30, 40}}});
  EXPECT_EQ(count_kind(comp, sim::FaultKind::kExternCorrupt, true), 1u);
}

TEST(FaultDifferential, SignedAndPipelinedSites) {
  HLSAV_REQUIRE_COMPILER();
  // Signed comparisons (narrowing turns them unsigned) and a pipelined
  // loop whose header test a stuck branch forces.
  DiffRig rig = make_rig(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      int32 lo;
      lo = 0 - 40;
      for (uint32 i = 0; i < 6; i++) {
        int32 s;
        s = 100 - stream_read(in);
        if (s < lo) { s = lo; }
        if (s <= 3) { s = s + 1; }
        int32 acc;
        acc = 0;
        #pragma HLS pipeline
        for (uint32 k = 0; k < 5; k++) {
          acc = acc + s;
        }
        stream_write(out, acc);
      }
    }
  )",
                         Options::unoptimized());
  sim::CampaignReport comp = expect_campaigns_agree(rig, {{"f.in", {0, 50, 99, 103, 140, 7}}});
  EXPECT_GT(count_kind(comp, sim::FaultKind::kNarrowCompare, true), 0u);
}

// ------------------------------------------------ hand-built specs --

const char* kHandSrc = R"(
  void f(stream_in<32> in, stream_out<32> out) {
    uint32 buf[4];
    int32 lo;
    lo = 0 - 7;
    for (uint32 i = 0; i < 6; i++) {
      int32 s;
      s = 60 - stream_read(in);
      if (s < lo) { s = lo; }
      buf[i & 3] = s;
      uint32 acc;
      acc = 0;
      #pragma HLS pipeline
      for (uint32 k = 0; k < 4; k++) {
        acc = acc + buf[k];
      }
      stream_write(out, acc);
    }
  }
)";

TEST(FaultDifferential, HandBuiltSpecsMatchTheInterpreterRules) {
  HLSAV_REQUIRE_COMPILER();
  DiffRig rig = make_rig(kHandSrc, Options::ndebug());
  ASSERT_EQ(rig.prep_error, "");
  const ir::Process& p = *rig.design.find_process("f");
  ir::StreamId out = p.find_port("out")->stream;
  ir::MemId buf = ir::kNoMem;
  for (const ir::Memory& m : rig.design.memories) {
    if (m.role == ir::MemRole::kData) buf = m.id;
  }
  ASSERT_NE(buf, ir::kNoMem);

  std::vector<sim::FaultSpec> specs;
  // Every comparison line, at widths below, at and above the operand
  // width (0 means "no fault" to the interpreter).
  for (const ir::BasicBlock& b : p.blocks) {
    for (const ir::Op& op : b.ops) {
      if (!op.is_comparison() || op.loc.line == 0) continue;
      for (unsigned w : {0u, 1u, 2u, 3u, 5u, 31u, 32u, 33u, 64u, 200u}) {
        specs.push_back(sim::FaultSpec::narrow_compare("f", op.loc.line, w));
      }
    }
  }
  // A line without a comparison, and another process's name.
  specs.push_back(sim::FaultSpec::narrow_compare("f", 9999, 3));
  specs.push_back(sim::FaultSpec::narrow_compare("g", 8, 3));
  // BRAM: in range, at the top bit, and at/beyond the memory width
  // (left unchanged); stuck-at both levels.
  for (unsigned bit : {0u, 5u, 31u, 32u, 40u, 63u, 64u}) {
    specs.push_back(sim::FaultSpec::bram_bit_flip(buf, bit));
    specs.push_back(sim::FaultSpec::bram_stuck_at(buf, bit, true));
    specs.push_back(sim::FaultSpec::bram_stuck_at(buf, bit, false));
  }
  // Every block: stuck both ways (pipelined headers included; jump and
  // return terminators ignore it) and skipped (pipelined headers and
  // bodies never are), plus out-of-range block ids.
  for (ir::BlockId b = 0; b < p.blocks.size() + 2; ++b) {
    specs.push_back(sim::FaultSpec::fsm_stuck_branch("f", b, true));
    specs.push_back(sim::FaultSpec::fsm_stuck_branch("f", b, false));
    specs.push_back(sim::FaultSpec::fsm_skip_block("f", b));
  }
  // Stream faults past the first word; the write counter advances for
  // dropped words too.
  for (std::uint64_t n : {0u, 2u, 5u, 9u}) {
    specs.push_back(sim::FaultSpec::stream_drop(out, n));
    specs.push_back(sim::FaultSpec::stream_dup(out, n));
    specs.push_back(sim::FaultSpec::stream_stuck(out, n, 7));
  }
  specs.push_back(sim::FaultSpec::channel_corrupt(3, 4));

  Feeds feeds{{"f.in", {0, 50, 70, 66, 140, 7}}};
  EngineRun golden = run_engine(rig, sim::SimEngine::kInterpreter, feeds, {"f.out"});
  std::size_t changed = 0;
  for (const sim::FaultSpec& spec : specs) {
    // describe() names the block, which out-of-range ids do not have.
    SCOPED_TRACE(std::string(sim::fault_kind_name(spec.kind)) + " line " +
                 std::to_string(spec.line) + " width " + std::to_string(spec.width) + " bit " +
                 std::to_string(spec.bit) + " block " + std::to_string(spec.block) + " word " +
                 std::to_string(spec.word_index));
    sim::SimOptions base;
    base.max_cycles = 20'000;
    base.faults.add(spec);
    EngineRun interp = run_engine(rig, sim::SimEngine::kInterpreter, feeds, {"f.out"}, base);
    EngineRun comp = run_engine(rig, sim::SimEngine::kCompiled, feeds, {"f.out"}, base);
    EXPECT_TRUE(comp.engine_active) << comp.engine_note;
    expect_identical(interp, comp);
    if (interp.outputs != golden.outputs || interp.result.cycles != golden.result.cycles) {
      ++changed;
    }
  }
  // The sweep is not vacuous: most specs do change the run.
  EXPECT_GT(changed, specs.size() / 3);
}

// ----------------------------------------------------- mixed mode --

TEST(FaultDifferential, BramFaultInAnInterpretedProcessOfACompiledRun) {
  HLSAV_REQUIRE_COMPILER();
  // The consumer gets a >64-bit register, so codegen declines it and
  // the compiled run interprets it against the shared u64 memory image.
  // Its BRAM stores must still take the fault.
  auto c = hlsav::testing::compile(R"(
    void producer(stream_in<32> in, stream_out<32> link) {
      for (uint32 i = 0; i < 4; i++) {
        stream_write(link, stream_read(in) * 2);
      }
    }
    void consumer(stream_in<32> link, stream_out<32> out) {
      uint32 buf[4];
      for (uint32 i = 0; i < 4; i++) {
        buf[i] = stream_read(link);
      }
      for (uint32 j = 0; j < 4; j++) {
        stream_write(out, buf[j]);
      }
    }
  )");
  DiffRig rig;
  rig.design = c->design.clone();
  ir::StreamId link = rig.design.find_process("producer")->find_port("link")->stream;
  rig.design.connect_consumer(link, "consumer", "link");
  assertions::synthesize(rig.design, Options::ndebug());
  ir::verify(rig.design);
  rig.schedule = sched::schedule_design(rig.design);
  rig.design.find_process("consumer")->add_reg("wide_scratch", 96, false);
  rig.prepare_compiled();
  ASSERT_EQ(rig.prep_error, "");

  ir::MemId buf = ir::kNoMem;
  for (const ir::Memory& m : rig.design.memories) {
    if (m.role == ir::MemRole::kData) buf = m.id;
  }
  ASSERT_NE(buf, ir::kNoMem);
  Feeds feeds{{"producer.in", {10, 20, 30, 40}}};
  for (const sim::FaultSpec& spec :
       {sim::FaultSpec::bram_bit_flip(buf, 4), sim::FaultSpec::bram_stuck_at(buf, 0, true)}) {
    SCOPED_TRACE(spec.describe(rig.design));
    sim::SimOptions base;
    base.faults.add(spec);
    EngineRun interp = run_engine(rig, sim::SimEngine::kInterpreter, feeds, {"consumer.out"}, base);
    EngineRun comp = run_engine(rig, sim::SimEngine::kCompiled, feeds, {"consumer.out"}, base);
    EXPECT_TRUE(comp.engine_active) << comp.engine_note;
    expect_identical(interp, comp);
    EXPECT_NE(interp.outputs.at("consumer.out"), (std::vector<std::uint64_t>{20, 40, 60, 80}));
  }
}

}  // namespace
}  // namespace hlsav::codegen
