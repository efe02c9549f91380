// Host-toolchain driver and on-disk cache for the compiled-simulation
// backend: turns the C source produced by emit_design() into a loaded
// shared object, content-addressed so repeated runs of the same design
// skip the compiler entirely.
//
// Everything here degrades gracefully: no compiler on PATH, an
// unwritable cache directory, or a failed compile all surface as Status
// errors the engine converts into an interpreter fallback -- never a
// hard failure of the simulation run.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "support/status.h"

namespace hlsav::codegen {

/// Locates a C compiler: $HLSAV_CC if set (absolute path or command
/// name, trusted verbatim), otherwise the first of cc/gcc/clang/c++/g++
/// found on PATH. Empty string when none is available. The result is
/// argv[0] of the build, run with no shell, so $HLSAV_CC must name one
/// executable: a value with arguments (`ccache gcc`) fails to run, and
/// the build error says so.
[[nodiscard]] std::string find_compiler();

/// Cache directory resolution: $HLSAV_CACHE_DIR, else
/// $XDG_CACHE_HOME/hlsav, else $HOME/.cache/hlsav, else /tmp/hlsav-cache.
/// The directory is not created here; compile_module does that lazily.
[[nodiscard]] std::string default_cache_dir();

/// Content address of a generated module: FNV-1a over the emitted
/// source, the compiler identity, the flags it is built with, the
/// toolchain git revision and the ABI version. Any of those changing
/// yields a different .so path, so stale cache entries are simply never
/// looked up again (a dirty-tree build keeps HEAD's revision, so the
/// flags must be hashed themselves).
[[nodiscard]] std::string content_key(const std::string& source, const std::string& compiler,
                                      std::span<const std::string_view> flags);

/// A compiled+loaded module. The dlopen handle stays open for the
/// lifetime of the object (compiled code may be executing); the design
/// key and entry table are read via jit internals in engine.cpp.
struct LoadedModule {
  void* dl = nullptr;
  std::string path;        // cached .so backing the handle
  std::string key;         // content key it was stored under
  bool from_cache = false;  // true when no compiler invocation was needed

  LoadedModule() = default;
  LoadedModule(const LoadedModule&) = delete;
  LoadedModule& operator=(const LoadedModule&) = delete;
  LoadedModule(LoadedModule&& o) noexcept { *this = std::move(o); }
  LoadedModule& operator=(LoadedModule&& o) noexcept;
  ~LoadedModule();
};

struct PrepareOptions {
  std::string compiler;      // empty = find_compiler()
  std::string cache_dir;     // empty = default_cache_dir()
  bool keep_source = false;  // leave <key>.c next to the .so for inspection
};

/// A cache entry, built or found, and not loaded.
struct BuiltModule {
  std::string path;         // cached .so
  std::string key;          // content key it is stored under
  bool from_cache = false;  // true when no compiler invocation was needed
};

/// Compiles `source` (appending the design-key symbol) into the cache
/// without loading it, or finds the entry already stored under its key.
/// A found entry is not opened: only compile_module notices (and
/// rebuilds) a corrupt one. For a process that must never load
/// generated code but leaves a warm cache for the processes that do.
[[nodiscard]] StatusOr<BuiltModule> build_module(const std::string& source,
                                                 const PrepareOptions& opt);

/// build_module, then dlopen the result; a cached entry that does not
/// load is removed and rebuilt once.
[[nodiscard]] StatusOr<LoadedModule> compile_module(const std::string& source,
                                                    const PrepareOptions& opt);

/// Resolves `symbol` in a loaded module; null when absent.
[[nodiscard]] void* module_symbol(const LoadedModule& m, const char* symbol);

}  // namespace hlsav::codegen
