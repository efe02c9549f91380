#include "codegen/jit.h"

#include <dlfcn.h>
#include <unistd.h>

#include <array>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/compiled.h"
#include "support/io.h"
#include "support/str.h"
#include "support/subprocess.h"

#ifndef HLSAV_GIT_SHA
#define HLSAV_GIT_SHA "unknown"
#endif

namespace hlsav::codegen {

namespace {

// The one flag set every module is built with, after the source on the
// cc command line. -Og builds ~2x faster than -O2 and faster than -O1.
// Its code runs the compiled 3DES campaign ~3.5% slower than -O2's (as
// does -O1's; not resolved from the spread), while -O0 code runs it
// ~1.8x slower (EXPERIMENTS.md, "Cold JIT flags"). The emitted C includes only
// <stdint.h> and calls nothing in libc, so -nostdlib drops the crt
// objects and -lc, which were pure link cost; -lgcc, after the source,
// still supplies the compiler's arithmetic helpers (64-bit division on
// 32-bit hosts).
constexpr std::array<std::string_view, 5> kCcFlags = {"-Og", "-fPIC", "-shared", "-nostdlib",
                                                      "-lgcc"};

bool executable_at(const std::string& path) { return ::access(path.c_str(), X_OK) == 0; }

std::string path_lookup(const std::string& name) {
  const char* path = std::getenv("PATH");
  if (path == nullptr) return {};
  std::stringstream ss(path);
  std::string dir;
  while (std::getline(ss, dir, ':')) {
    if (dir.empty()) continue;
    std::string cand = dir + "/" + name;
    if (executable_at(cand)) return cand;
  }
  return {};
}

std::string read_log_tail(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::string all((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // First few lines carry the actual error; the rest is usually notes.
  std::size_t cut = 0;
  for (int lines = 0; cut < all.size() && lines < 6; ++cut) {
    if (all[cut] == '\n') ++lines;
  }
  return all.substr(0, cut);
}

/// Opens `path` and validates the module's ABI stamp and design key.
/// Returns the handle or an explanation of why the file is unusable.
StatusOr<void*> open_and_check(const std::string& path, const std::string& key) {
  void* dl = ::dlopen(path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (dl == nullptr) {
    const char* err = ::dlerror();
    return Status::io_error("dlopen failed: " + std::string(err != nullptr ? err : "?"));
  }
  auto* abi = static_cast<const std::uint32_t*>(::dlsym(dl, "hlsav_abi"));
  auto* dkey = static_cast<const char*>(::dlsym(dl, "hlsav_design_key"));
  if (abi == nullptr || dkey == nullptr) {
    ::dlclose(dl);
    return Status::io_error("module lacks hlsav_abi/hlsav_design_key symbols");
  }
  if (*abi != sim::kCompiledAbiVersion) {
    ::dlclose(dl);
    return Status::io_error("module ABI " + std::to_string(*abi) + " != expected " +
                            std::to_string(sim::kCompiledAbiVersion));
  }
  if (key != dkey) {
    ::dlclose(dl);
    return Status::io_error("module design key mismatch");
  }
  return dl;
}

}  // namespace

LoadedModule& LoadedModule::operator=(LoadedModule&& o) noexcept {
  if (this != &o) {
    if (dl != nullptr) ::dlclose(dl);
    dl = std::exchange(o.dl, nullptr);
    path = std::move(o.path);
    key = std::move(o.key);
    from_cache = o.from_cache;
  }
  return *this;
}

LoadedModule::~LoadedModule() {
  if (dl != nullptr) ::dlclose(dl);
}

std::string find_compiler() {
  const char* env = std::getenv("HLSAV_CC");
  if (env != nullptr && env[0] != '\0') return env;
  for (const char* cand : {"cc", "gcc", "clang", "c++", "g++"}) {
    std::string found = path_lookup(cand);
    if (!found.empty()) return found;
  }
  return {};
}

std::string default_cache_dir() {
  const char* env = std::getenv("HLSAV_CACHE_DIR");
  if (env != nullptr && env[0] != '\0') return env;
  const char* xdg = std::getenv("XDG_CACHE_HOME");
  if (xdg != nullptr && xdg[0] != '\0') return std::string(xdg) + "/hlsav";
  const char* home = std::getenv("HOME");
  if (home != nullptr && home[0] != '\0') return std::string(home) + "/.cache/hlsav";
  return "/tmp/hlsav-cache";
}

std::string content_key(const std::string& source, const std::string& compiler,
                        std::span<const std::string_view> flags) {
  std::uint64_t h = fnv1a(source);
  h = fnv1a(compiler, h);
  for (std::string_view f : flags) {
    h = fnv1a(f, h);
    h = fnv1a(std::string_view("\0", 1), h);  // {"-O1", "x"} is not {"-O1x"}
  }
  h = fnv1a(HLSAV_GIT_SHA, h);
  h = fnv1a(std::to_string(sim::kCompiledAbiVersion), h);
  std::ostringstream os;
  os << std::hex << h;
  return os.str();
}

StatusOr<BuiltModule> build_module(const std::string& source, const PrepareOptions& opt) {
  std::string compiler = opt.compiler.empty() ? find_compiler() : opt.compiler;
  if (compiler.empty()) {
    return Status::error(StatusCode::kSimError,
                         "no C compiler found (set HLSAV_CC or install cc/gcc/clang)");
  }
  BuiltModule built;
  built.key = content_key(source, compiler, kCcFlags);
  const std::string dir = opt.cache_dir.empty() ? default_cache_dir() : opt.cache_dir;
  const std::string base = dir + "/hlsav-" + built.key;
  built.path = base + ".so";

  // Cache probe: a readable .so under this key was built from byte-for-
  // byte identical source by an identical toolchain and flags.
  if (::access(built.path.c_str(), R_OK) == 0) {
    built.from_cache = true;
    return built;
  }

  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::io_error("cannot create cache directory '" + dir + "': " + ec.message());
  }

  // Unique temp names (pid-qualified) so concurrent builds of the same
  // design race benignly: last rename wins, both results are identical.
  const std::string tag = "." + std::to_string(::getpid()) + ".tmp";
  const std::string c_path = base + tag + ".c";
  const std::string tmp_so = base + tag + ".so";
  const std::string log_path = base + tag + ".log";

  std::string full = source;
  full += "const char hlsav_design_key[] = \"" + built.key + "\";\n";
  HLSAV_RETURN_IF_ERROR(write_file_atomic(c_path, full));

  std::vector<std::string> argv = {compiler, "-xc", c_path};
  argv.insert(argv.end(), kCcFlags.begin(), kCcFlags.end());
  argv.insert(argv.end(), {"-o", tmp_so});
  // A child of our own rather than std::system(), which ignores SIGINT
  // process-wide while it waits: a daemon thread building here must not
  // swallow the daemon's own signals. No shell: the argv is the command.
  StatusOr<Subprocess> cc = Subprocess::spawn(argv, /*capture_stdout=*/false,
                                              /*kill_on_parent_death=*/false,
                                              /*pipe_stdin=*/false, log_path);
  if (!cc.ok()) {
    std::filesystem::remove(c_path, ec);
    return cc.status();
  }
  const ExitInfo ended = cc->wait();
  std::string log = read_log_tail(log_path);
  std::filesystem::remove(log_path, ec);
  if (opt.keep_source) {
    std::filesystem::rename(c_path, base + ".c", ec);
  } else {
    std::filesystem::remove(c_path, ec);
  }
  if (!ended.clean()) {
    std::filesystem::remove(tmp_so, ec);
    std::string what = ended.signaled
                           ? "compiler died: " + ended.describe()
                           : "compiler exited with status " + std::to_string(ended.value);
    // 127 is Subprocess's exec failure: the compiler string named no
    // runnable file. A common cause is an HLSAV_CC with arguments.
    if (!ended.signaled && ended.value == 127) {
      what += " (cannot run '" + compiler +
              "': HLSAV_CC must name one executable, a path or a command on PATH, with no "
              "arguments)";
    }
    return Status::error(StatusCode::kSimError,
                         what + (log.empty() ? std::string() : ":\n" + log));
  }
  std::filesystem::rename(tmp_so, built.path, ec);
  if (ec) {
    std::filesystem::remove(tmp_so, ec);
    return Status::io_error("cannot publish compiled module to '" + built.path + "'");
  }
  return built;
}

StatusOr<LoadedModule> compile_module(const std::string& source, const PrepareOptions& opt) {
  StatusOr<BuiltModule> built = build_module(source, opt);
  if (!built.ok()) return built.status();
  StatusOr<void*> dl = open_and_check(built->path, built->key);
  if (!dl.ok() && built->from_cache) {
    // Corrupt or stale entry: drop it and rebuild.
    std::error_code ec;
    std::filesystem::remove(built->path, ec);
    built = build_module(source, opt);
    if (!built.ok()) return built.status();
    dl = open_and_check(built->path, built->key);
  }
  if (!dl.ok()) return dl.status();
  LoadedModule m;
  m.dl = *dl;
  m.path = built->path;
  m.key = built->key;
  m.from_cache = built->from_cache;
  return StatusOr<LoadedModule>(std::move(m));
}

void* module_symbol(const LoadedModule& m, const char* symbol) {
  return m.dl != nullptr ? ::dlsym(m.dl, symbol) : nullptr;
}

}  // namespace hlsav::codegen
