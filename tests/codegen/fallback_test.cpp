// The graceful-fallback contract: a compiled-engine request must never
// turn a runnable design into an error. Whatever goes wrong -- no host
// compiler, unwritable cache, a construct codegen declines, an armed
// observability feature that needs interpreter hooks -- the simulator
// interprets, reports why in engine_note(), and produces the exact
// result the interpreter always produced. The hlsavc driver maps the
// same contract onto the CLI: a logged reason on stderr, exit code
// unchanged.
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "codegen/codegen_test_util.h"
#include "metrics/profile.h"
#include "sim/fault.h"
#include "trace/trace.h"
#include "trace/vcd.h"

#ifndef HLSAVC_PATH
#define HLSAVC_PATH "hlsavc"
#endif

namespace hlsav::codegen {
namespace {

using assertions::Options;

const char* kSrc = R"(
  void f(stream_in<32> in, stream_out<32> out) {
    for (uint32 i = 0; i < 4; i++) {
      uint32 v;
      v = stream_read(in);
      assert(v < 1000);
      stream_write(out, v + 1);
    }
  }
)";

// --------------------------------------------- prepare()-level errors --

TEST(Fallback, MissingCompilerIsAStatusNotACrash) {
  DiffRig rig = make_rig(kSrc, Options::unoptimized());
  PrepareOptions popt;
  popt.compiler = "/nonexistent/hlsav-cc-for-tests";
  popt.cache_dir = test_cache_dir() + "/missing-cc";
  StatusOr<std::unique_ptr<CompiledDesign>> prep = prepare(rig.design, rig.schedule, popt);
  ASSERT_FALSE(prep.ok());
  EXPECT_NE(prep.status().message().find("compiler"), std::string::npos)
      << prep.status().message();
}

TEST(Fallback, UnwritableCacheDirIsAStatusNotACrash) {
  HLSAV_REQUIRE_COMPILER();
  DiffRig rig = make_rig(kSrc, Options::unoptimized());
  PrepareOptions popt;
  // /proc rejects mkdir for everyone, root included.
  popt.cache_dir = "/proc/hlsav-definitely-not-writable/cache";
  StatusOr<std::unique_ptr<CompiledDesign>> prep = prepare(rig.design, rig.schedule, popt);
  ASSERT_FALSE(prep.ok());
  EXPECT_NE(prep.status().message().find("cache"), std::string::npos) << prep.status().message();
}

TEST(Fallback, WideRegisterDeclinesWithReason) {
  // A >64-bit register is outside the compiled ABI; codegen must
  // decline the process (here: every process, so prepare errors) and
  // say which construct it balked at.
  auto c = hlsav::testing::compile(kSrc);
  DiffRig rig;
  rig.design = c->design.clone();
  assertions::synthesize(rig.design, Options::ndebug());
  ir::verify(rig.design);
  rig.schedule = sched::schedule_design(rig.design);
  rig.design.find_process("f")->add_reg("wide_scratch", 128, false);
  PrepareOptions popt;
  popt.cache_dir = test_cache_dir();
  StatusOr<std::unique_ptr<CompiledDesign>> prep = prepare(rig.design, rig.schedule, popt);
  ASSERT_FALSE(prep.ok());
  EXPECT_NE(prep.status().message().find("64"), std::string::npos) << prep.status().message();
}

// ------------------------------------- simulator-level fallback paths --

TEST(Fallback, CompiledRequestWithoutHandleInterprets) {
  DiffRig rig = make_rig(kSrc, Options::unoptimized());
  std::map<std::string, std::vector<std::uint64_t>> feeds{{"f.in", {10, 20, 30, 40}}};
  // No handle attached at all: run_engine leaves base.compiled null
  // when rig.compiled is null, but here we force the situation even if
  // a compiler exists by not preparing a module.
  DiffRig bare;
  bare.design = rig.design.clone();
  bare.schedule = sched::schedule_design(bare.design);
  EngineRun interp = run_engine(bare, sim::SimEngine::kInterpreter, feeds, {"f.out"});
  EngineRun comp = run_engine(bare, sim::SimEngine::kCompiled, feeds, {"f.out"});
  EXPECT_FALSE(comp.engine_active);
  EXPECT_NE(comp.engine_note.find("no compiled design"), std::string::npos) << comp.engine_note;
  expect_identical(interp, comp);
  // kAuto without a handle is the quiet everyday path: interpret, no
  // complaint needed but a note is still recorded.
  EngineRun aut = run_engine(bare, sim::SimEngine::kAuto, feeds, {"f.out"});
  EXPECT_FALSE(aut.engine_active);
  expect_identical(interp, aut);
}

TEST(Fallback, MixedDesignCompilesWhatItCanInterpretsTheRest) {
  HLSAV_REQUIRE_COMPILER();
  // Two processes; one gets a >64-bit scratch register post-schedule,
  // so codegen declines it. prepare() must still succeed, the run must
  // execute the good process compiled and the wide one interpreted,
  // and the results must match full interpretation.
  auto c = hlsav::testing::compile(R"(
    void producer(stream_in<32> in, stream_out<32> link) {
      for (uint32 i = 0; i < 6; i++) {
        stream_write(link, stream_read(in) * 2);
      }
    }
    void consumer(stream_in<32> link, stream_out<32> out) {
      for (uint32 i = 0; i < 6; i++) {
        stream_write(out, stream_read(link) + 1);
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
  ASSERT_NE(rig.compiled, nullptr);

  bool saw_decline = false;
  for (const ProcEmit& pe : rig.compiled->procs()) {
    if (pe.process == "consumer") {
      EXPECT_FALSE(pe.compiled());
      EXPECT_FALSE(pe.decline_reason.empty());
      saw_decline = true;
    }
    if (pe.process == "producer") {
      EXPECT_TRUE(pe.compiled());
    }
  }
  EXPECT_TRUE(saw_decline);

  std::map<std::string, std::vector<std::uint64_t>> feeds{{"producer.in", {1, 2, 3, 4, 5, 6}}};
  EngineRun interp = run_engine(rig, sim::SimEngine::kInterpreter, feeds, {"consumer.out"});
  EngineRun comp = run_engine(rig, sim::SimEngine::kCompiled, feeds, {"consumer.out"});
  EXPECT_TRUE(comp.engine_active) << comp.engine_note;
  expect_identical(interp, comp);
}

TEST(Fallback, TraceArmedDeclinesAndTracesIdentically) {
  HLSAV_REQUIRE_COMPILER();
  DiffRig rig = make_rig(kSrc, Options::unoptimized());
  ASSERT_EQ(rig.prep_error, "");
  sim::SimOptions base;
  base.trace = true;
  std::map<std::string, std::vector<std::uint64_t>> feeds{{"f.in", {10, 20, 30, 40}}};
  EngineRun interp = run_engine(rig, sim::SimEngine::kInterpreter, feeds, {"f.out"}, base);
  EngineRun comp = run_engine(rig, sim::SimEngine::kCompiled, feeds, {"f.out"}, base);
  EXPECT_FALSE(comp.engine_active);
  EXPECT_NE(comp.engine_note.find("trace"), std::string::npos) << comp.engine_note;
  expect_identical(interp, comp);
  EXPECT_EQ(interp.rendered_trace, comp.rendered_trace);
  EXPECT_FALSE(comp.rendered_trace.empty());
}

TEST(Fallback, ElaArmedDeclinesAndVcdBytesIdentical) {
  HLSAV_REQUIRE_COMPILER();
  DiffRig rig = make_rig(kSrc, Options::unoptimized());
  ASSERT_EQ(rig.prep_error, "");
  std::map<std::string, std::vector<std::uint64_t>> feeds{{"f.in", {10, 20, 30, 40}}};

  auto vcd_of = [&](sim::SimEngine engine, bool* active, std::string* note) {
    trace::TraceEngine ela(rig.design);
    sim::SimOptions base;
    base.ela = &ela;
    EngineRun er = run_engine(rig, engine, feeds, {"f.out"}, base);
    *active = er.engine_active;
    *note = er.engine_note;
    trace::VcdWriter w(rig.design, ela.config().filter);
    std::ostringstream os;
    w.write(os, ela.window());
    return os.str();
  };

  bool active = false;
  std::string note;
  std::string interp_vcd = vcd_of(sim::SimEngine::kInterpreter, &active, &note);
  EXPECT_FALSE(active);
  std::string comp_vcd = vcd_of(sim::SimEngine::kCompiled, &active, &note);
  EXPECT_FALSE(active);
  EXPECT_NE(note.find("ELA"), std::string::npos) << note;
  EXPECT_FALSE(interp_vcd.empty());
  EXPECT_EQ(interp_vcd, comp_vcd);
}

TEST(Fallback, ProfilerArmedDeclines) {
  HLSAV_REQUIRE_COMPILER();
  DiffRig rig = make_rig(kSrc, Options::unoptimized());
  ASSERT_EQ(rig.prep_error, "");
  metrics::Profiler prof(rig.design, rig.schedule);
  sim::SimOptions base;
  base.profile = &prof;
  std::map<std::string, std::vector<std::uint64_t>> feeds{{"f.in", {10, 20, 30, 40}}};
  EngineRun comp = run_engine(rig, sim::SimEngine::kCompiled, feeds, {"f.out"}, base);
  EXPECT_FALSE(comp.engine_active);
  EXPECT_NE(comp.engine_note.find("profiler"), std::string::npos) << comp.engine_note;
  EXPECT_EQ(comp.result.status, sim::RunStatus::kCompleted);
}

TEST(Fallback, SingleFaultRunsCompiledWithIdenticalResult) {
  HLSAV_REQUIRE_COMPILER();
  // One armed fault -- what every campaign site arms -- no longer needs
  // the interpreter: the compiled engine applies it and must produce
  // the interpreter's result.
  DiffRig rig = make_rig(kSrc, Options::unoptimized());
  ASSERT_EQ(rig.prep_error, "");
  ir::StreamId out = rig.design.find_process("f")->find_port("out")->stream;
  std::map<std::string, std::vector<std::uint64_t>> feeds{{"f.in", {10, 20, 30, 40}}};

  sim::SimOptions base;
  base.faults.add(sim::FaultSpec::stream_drop(out, 1));
  EngineRun interp = run_engine(rig, sim::SimEngine::kInterpreter, feeds, {"f.out"}, base);
  EngineRun comp = run_engine(rig, sim::SimEngine::kCompiled, feeds, {"f.out"}, base);
  EXPECT_TRUE(comp.engine_active) << comp.engine_note;
  EXPECT_EQ(comp.engine_note, "");
  expect_identical(interp, comp);
  EXPECT_EQ(comp.outputs["f.out"], (std::vector<std::uint64_t>{11, 31, 41}));
}

TEST(Fallback, MultiFaultDeclinesWithIdenticalResult) {
  HLSAV_REQUIRE_COMPILER();
  // The compiled hooks hold one fault; a fault engine with several, a
  // wildcard narrow-compare spec or an address-ranged BRAM fault keeps
  // the fallback contract: interpret, say why, same result.
  DiffRig rig = make_rig(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 buf[4];
      for (uint32 i = 0; i < 4; i++) {
        buf[i] = stream_read(in);
        assert(buf[i] < 1000);
        stream_write(out, buf[i] + 1);
      }
    }
  )",
                         Options::unoptimized());
  ASSERT_EQ(rig.prep_error, "");
  ir::StreamId out = rig.design.find_process("f")->find_port("out")->stream;
  std::map<std::string, std::vector<std::uint64_t>> feeds{{"f.in", {10, 20, 30, 40}}};

  ir::MemId buf = ir::kNoMem;
  for (const ir::Memory& m : rig.design.memories) {
    if (m.role == ir::MemRole::kData) buf = m.id;
  }
  ASSERT_NE(buf, ir::kNoMem);
  sim::FaultSpec ranged = sim::FaultSpec::bram_bit_flip(buf, 0);
  ranged.addr_lo = 1;
  struct Case {
    std::vector<sim::FaultSpec> faults;
    std::string note;
  };
  std::vector<Case> cases = {
      {{sim::FaultSpec::stream_drop(out, 1), sim::FaultSpec::stream_dup(out, 2)}, "2 faults"},
      {{sim::FaultSpec::narrow_compare("", 0, 3)}, "wildcard"},
      {{sim::FaultSpec::narrow_compare("f", 0, 3)}, "wildcard"},
      {{sim::FaultSpec::narrow_compare("", 3, 3)}, "wildcard"},
      {{ranged}, "address-ranged"},
  };
  for (const Case& c : cases) {
    sim::SimOptions base;
    for (const sim::FaultSpec& f : c.faults) base.faults.add(f);
    EngineRun interp = run_engine(rig, sim::SimEngine::kInterpreter, feeds, {"f.out"}, base);
    EngineRun comp = run_engine(rig, sim::SimEngine::kCompiled, feeds, {"f.out"}, base);
    EXPECT_FALSE(comp.engine_active);
    EXPECT_NE(comp.engine_note.find("fault injection armed"), std::string::npos)
        << comp.engine_note;
    EXPECT_NE(comp.engine_note.find(c.note), std::string::npos) << comp.engine_note;
    expect_identical(interp, comp);
  }
}

// ----------------------------------------------- CLI fallback contract --

struct CmdResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

CmdResult run_cmd(const std::string& env_and_args) {
  std::string cmd = env_and_args + " 2>&1";
  std::array<char, 4096> buf{};
  CmdResult r;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  while (fgets(buf.data(), static_cast<int>(buf.size()), pipe) != nullptr) {
    r.output += buf.data();
  }
  r.exit_code = WEXITSTATUS(pclose(pipe));
  return r;
}

TEST(Fallback, CliCompiledEngineWithoutCompilerExitsZero) {
  // The satellite contract verbatim: missing cc falls back to the
  // interpreter with a logged reason -- never an error exit.
  const std::string src_path =
      ::testing::TempDir() + "hlsav-fallback-" + std::to_string(::getpid()) + ".c";
  {
    std::ofstream out(src_path);
    out << kSrc;
  }
  CmdResult r = run_cmd(std::string("HLSAV_CC=/nonexistent/hlsav-cc ") + HLSAVC_PATH +
                        " simulate " + src_path + " --engine=compiled --feed f.in=10,20,30,40");
  ::unlink(src_path.c_str());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("interpreting"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("11"), std::string::npos) << r.output;
}

}  // namespace
}  // namespace hlsav::codegen
