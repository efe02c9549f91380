// Emitter and module-cache unit tests: deterministic C emission, the
// registry/ABI symbols every module must export, decline reasons,
// content-addressed cache keys, cache hits, corrupt-entry repair, and
// the compiler invocation itself.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "codegen/codegen_test_util.h"
#include "codegen/emit.h"
#include "codegen/jit.h"

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

DiffRig lowered_rig(const std::string& src, const Options& aopt) {
  auto c = hlsav::testing::compile(src);
  DiffRig rig;
  rig.design = c->design.clone();
  assertions::synthesize(rig.design, aopt);
  ir::verify(rig.design);
  rig.schedule = sched::schedule_design(rig.design);
  return rig;
}

TEST(Emit, DeterministicSource) {
  DiffRig rig = lowered_rig(kSrc, Options::optimized());
  EmitResult a = emit_design(rig.design, rig.schedule);
  EmitResult b = emit_design(rig.design, rig.schedule);
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.compiled_count(), b.compiled_count());
}

TEST(Emit, SourceExportsAbiAndRegistry) {
  DiffRig rig = lowered_rig(kSrc, Options::unoptimized());
  EmitResult e = emit_design(rig.design, rig.schedule);
  ASSERT_EQ(e.compiled_count(), 1u);
  EXPECT_EQ(e.procs[0].process, "f");
  EXPECT_TRUE(e.procs[0].compiled());
  // The loader contract: ABI stamp, entry registry, per-process symbol.
  EXPECT_NE(e.source.find("hlsav_abi"), std::string::npos);
  EXPECT_NE(e.source.find("hlsav_entries"), std::string::npos);
  EXPECT_NE(e.source.find("hlsav_entry_count"), std::string::npos);
  EXPECT_NE(e.source.find(e.procs[0].symbol), std::string::npos);
}

TEST(Emit, PipelinedLoopEmitsIterationStructure) {
  DiffRig rig = lowered_rig(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 x;
      x = stream_read(in);
      uint32 acc;
      acc = 0;
      #pragma HLS pipeline
      for (uint32 i = 0; i < 10; i++) {
        acc = acc + x + i;
      }
      stream_write(out, acc);
    }
  )",
                            Options::ndebug());
  EmitResult e = emit_design(rig.design, rig.schedule);
  ASSERT_EQ(e.compiled_count(), 1u);
  EXPECT_NE(e.source.find("_loop"), std::string::npos);
}

TEST(Emit, WideRegisterDeclinedWithReason) {
  DiffRig rig = lowered_rig(kSrc, Options::ndebug());
  rig.design.find_process("f")->add_reg("wide_scratch", 128, false);
  EmitResult e = emit_design(rig.design, rig.schedule);
  EXPECT_EQ(e.compiled_count(), 0u);
  ASSERT_EQ(e.procs.size(), 1u);
  EXPECT_FALSE(e.procs[0].compiled());
  EXPECT_NE(e.procs[0].decline_reason.find("64"), std::string::npos)
      << e.procs[0].decline_reason;
}

const std::vector<std::string_view> kFlags = {"-O1", "-fPIC", "-shared"};

TEST(Jit, ContentKeyStableAndSensitive) {
  std::string a = content_key("int x;", "/usr/bin/cc", kFlags);
  EXPECT_EQ(a, content_key("int x;", "/usr/bin/cc", kFlags));
  EXPECT_NE(a, content_key("int y;", "/usr/bin/cc", kFlags));
  EXPECT_NE(a, content_key("int x;", "/usr/bin/clang", kFlags));
}

// A build keeps its git revision while its flags change (a dirty tree,
// or HLSAV_GIT_SHA=unknown), so the key must hash the flags themselves.
TEST(Jit, ContentKeyCoversFlags) {
  std::string a = content_key("int x;", "/usr/bin/cc", kFlags);
  const std::vector<std::string_view> o2 = {"-O2", "-fPIC", "-shared"};
  const std::vector<std::string_view> more = {"-O1", "-fPIC", "-shared", "-nostdlib"};
  const std::vector<std::string_view> none;
  EXPECT_NE(a, content_key("int x;", "/usr/bin/cc", o2));
  EXPECT_NE(a, content_key("int x;", "/usr/bin/cc", more));
  EXPECT_NE(a, content_key("int x;", "/usr/bin/cc", none));
  // Flag boundaries count: {"-O1", "x"} is not {"-O1x"}.
  const std::vector<std::string_view> split = {"-O1", "x"};
  const std::vector<std::string_view> joined = {"-O1x"};
  EXPECT_NE(content_key("int x;", "/usr/bin/cc", split),
            content_key("int x;", "/usr/bin/cc", joined));
}

// A trivial but complete module: correct ABI stamp, empty registry.
std::string stub_module_source() {
  return "typedef unsigned int u32;\n"
         "const u32 hlsav_abi = " +
         std::to_string(sim::kCompiledAbiVersion) +
         ";\n"
         "typedef struct { const char* name; void* fn; } hlsav_entry_t;\n"
         "const hlsav_entry_t hlsav_entries[] = {{0, 0}};\n"
         "const u32 hlsav_entry_count = 0;\n";
}

TEST(Jit, SecondBuildHitsCache) {
  HLSAV_REQUIRE_COMPILER();
  PrepareOptions opt;
  opt.cache_dir = test_cache_dir() + "/hit-" + std::to_string(::getpid());
  StatusOr<LoadedModule> first = compile_module(stub_module_source(), opt);
  ASSERT_TRUE(first.ok()) << first.status().message();
  EXPECT_FALSE(first->from_cache);
  StatusOr<LoadedModule> second = compile_module(stub_module_source(), opt);
  ASSERT_TRUE(second.ok()) << second.status().message();
  EXPECT_TRUE(second->from_cache);
  EXPECT_EQ(first->key, second->key);
  EXPECT_EQ(first->path, second->path);
}

TEST(Jit, KeepSourceLeavesGeneratedC) {
  HLSAV_REQUIRE_COMPILER();
  PrepareOptions opt;
  opt.cache_dir = test_cache_dir() + "/keep-" + std::to_string(::getpid());
  opt.keep_source = true;
  StatusOr<LoadedModule> m = compile_module(stub_module_source(), opt);
  ASSERT_TRUE(m.ok()) << m.status().message();
  std::string c_path = m->path.substr(0, m->path.size() - 3) + ".c";
  EXPECT_TRUE(std::filesystem::exists(c_path)) << c_path;
}

TEST(Jit, CorruptCacheEntryIsRebuilt) {
  HLSAV_REQUIRE_COMPILER();
  PrepareOptions opt;
  opt.cache_dir = test_cache_dir() + "/corrupt-" + std::to_string(::getpid());
  std::string so_path;
  {
    StatusOr<LoadedModule> m = compile_module(stub_module_source(), opt);
    ASSERT_TRUE(m.ok()) << m.status().message();
    so_path = m->path;
  }  // dlclose before stomping the file
  {
    std::ofstream out(so_path, std::ios::trunc | std::ios::binary);
    out << "not an ELF file";
  }
  StatusOr<LoadedModule> again = compile_module(stub_module_source(), opt);
  ASSERT_TRUE(again.ok()) << again.status().message();
  EXPECT_FALSE(again->from_cache);  // the bad entry was dropped and rebuilt
}

TEST(Jit, CompilerErrorSurfacesDiagnostics) {
  HLSAV_REQUIRE_COMPILER();
  PrepareOptions opt;
  opt.cache_dir = test_cache_dir() + "/err-" + std::to_string(::getpid());
  StatusOr<LoadedModule> m = compile_module("this is not C at all @@@;\n", opt);
  ASSERT_FALSE(m.ok());
  const std::string& msg = m.status().message();
  EXPECT_NE(msg.find("compiler exited"), std::string::npos) << msg;
  // The compiler's own diagnostic (its stderr, kept in the build log)
  // follows the exit status, naming the generated source.
  EXPECT_NE(msg.find("error"), std::string::npos) << msg;
  EXPECT_NE(msg.find(".tmp.c"), std::string::npos) << msg;
}

// The compiler is run from an argv, never through a shell, so a path
// with a space and a quote in it is just a path.
TEST(Jit, CompilerPathWithSpaceAndQuoteBuilds) {
  HLSAV_REQUIRE_COMPILER();
  const std::string real = find_compiler();
  const std::string dir = test_cache_dir() + "/odd dir's-" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  const std::string wrapper = dir + "/my \"cc\" 'x'";
  {
    std::ofstream out(wrapper);
    out << "#!/bin/sh\nexec \"" << real << "\" \"$@\"\n";
  }
  std::filesystem::permissions(wrapper, std::filesystem::perms::owner_all);
  PrepareOptions opt;
  opt.compiler = wrapper;
  opt.cache_dir = dir + "/cache";
  StatusOr<LoadedModule> m = compile_module(stub_module_source(), opt);
  ASSERT_TRUE(m.ok()) << m.status().message();
  EXPECT_FALSE(m->from_cache);
}

// The compiler string is argv[0], not a command line: one with an
// argument fails to exec, and the error names the contract.
TEST(Jit, CompilerWithArgumentsFailsWithAClearMessage) {
  HLSAV_REQUIRE_COMPILER();
  PrepareOptions opt;
  opt.compiler = find_compiler() + " -Wall";
  opt.cache_dir = test_cache_dir() + "/args-" + std::to_string(::getpid());
  StatusOr<LoadedModule> m = compile_module(stub_module_source(), opt);
  ASSERT_FALSE(m.ok());
  const std::string& msg = m.status().message();
  EXPECT_NE(msg.find("compiler exited with status 127"), std::string::npos) << msg;
  EXPECT_NE(msg.find("HLSAV_CC must name one executable"), std::string::npos) << msg;
  EXPECT_NE(msg.find("exec failed"), std::string::npos) << msg;  // from the build log
}

// Modules link with -nostdlib -lgcc: 64-bit division, remainder and
// shifts (library calls on hosts without native 64-bit division) must
// resolve at dlopen(RTLD_NOW) and match the interpreter bit for bit.
TEST(Jit, LibcFreeModuleRuns64BitDivisionAndShifts) {
  HLSAV_REQUIRE_COMPILER();
  DiffRig rig = make_rig(R"(
    void f(stream_in<64> in, stream_out<64> out) {
      for (uint32 i = 0; i < 6; i++) {
        uint64 a = stream_read(in);
        uint64 b = stream_read(in);
        int64 sa = a;
        int64 sb = b;
        uint64 n = b & 63;
        stream_write(out, a / b);
        stream_write(out, a % b);
        stream_write(out, sa / sb);
        stream_write(out, sa % sb);
        stream_write(out, a << n);
        stream_write(out, a >> n);
        stream_write(out, sa >> n);
      }
    }
  )",
                         Options::ndebug());
  ASSERT_EQ(rig.prep_error, "");  // compile_module dlopens with RTLD_NOW
  const std::uint64_t kMin = 0x8000000000000000ull;
  const std::uint64_t kAll = ~0ull;
  expect_engines_agree(rig,
                       {{"f.in",
                         {0xfedcba9876543210ull, 0x123456789ull, kAll, 3, kMin, kAll, 12345, 0,
                          kMin + 7, 0xfffffffffffffff9ull, 0x0123456789abcdefull, 63}}},
                       {"f.out"});
}

}  // namespace
}  // namespace hlsav::codegen
