// Shared helpers for tests: compile HLS-C source through the full
// frontend (parse -> sema -> lower) into an ir::Design, and per-process
// temp files.
#pragma once

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>

#include "ir/ir.h"
#include "ir/lower.h"
#include "lang/parser.h"
#include "lang/sema.h"

namespace hlsav::testing {

struct Compiled {
  SourceManager sm;
  DiagnosticEngine diags;
  std::unique_ptr<lang::Program> program;
  lang::SemaResult sema;
  ir::Design design;

  [[nodiscard]] ir::Process& process(std::string_view name) {
    ir::Process* p = design.find_process(name);
    EXPECT_NE(p, nullptr) << "no process " << name;
    return *p;
  }
};

/// Parses, analyzes and lowers `src`. Expects success unless
/// `expect_ok` is false.
inline std::unique_ptr<Compiled> compile(const std::string& src, bool expect_ok = true,
                                         const std::string& file_name = "test.c") {
  auto c = std::make_unique<Compiled>();
  c->diags.attach(&c->sm);
  c->design.name = "test_design";
  c->program = lang::parse_source(c->sm, c->diags, file_name, src);
  if (c->diags.has_errors()) {
    EXPECT_FALSE(expect_ok) << c->diags.render();
    return c;
  }
  c->sema = lang::analyze(*c->program, c->sm, c->diags);
  if (!c->sema.ok) {
    EXPECT_FALSE(expect_ok) << c->diags.render();
    return c;
  }
  Status lowered = ir::lower_all_processes(c->design, *c->program, c->sm, c->diags);
  EXPECT_EQ(lowered.ok(), expect_ok) << c->diags.render();
  return c;
}

/// Pid-unique path in the shared TempDir. ctest runs every test as its
/// own process in parallel; a fixed name would let one process read a
/// file another is mid-truncating.
inline std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + std::to_string(::getpid()) + "_" + name;
}

/// Writes `contents` to temp_path(name) and returns that path.
inline std::string write_temp(const std::string& name, const std::string& contents) {
  std::string path = temp_path(name);
  std::ofstream out(path);
  out << contents;
  return path;
}

/// The whole file at `path` ("" if it cannot be read).
inline std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Points the JIT cache at a directory private to this test process,
/// for it and every process it starts: the suite never writes the
/// developer's cache, and each test binary compiles a design once.
inline void use_private_jit_cache() {
  ::setenv("HLSAV_CACHE_DIR", temp_path("jit-cache").c_str(), 1);
}

/// The work directory for a daemon a test starts, temp_path(name),
/// emptied: a dead test process with this pid may have left a spool
/// there that the daemon would re-adopt. Also gives the daemon a
/// private JIT cache (use_private_jit_cache).
inline std::string daemon_work_dir(const std::string& name) {
  std::string dir = temp_path(name);
  std::filesystem::remove_all(dir);
  use_private_jit_cache();
  return dir;
}

/// Sets environment variable `name` (unsets it for a null `value`)
/// until destroyed, then puts back what was there.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (saved_.has_value()) {
      ::setenv(name_.c_str(), saved_->c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::optional<std::string> saved_;
};

}  // namespace hlsav::testing
