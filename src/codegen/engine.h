// The compiled-simulation engine facade: emit + compile + load in one
// call, producing a handle the Simulator runs behind its normal
// interface (SimOptions::compiled).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "codegen/emit.h"
#include "codegen/jit.h"
#include "ir/ir.h"
#include "sched/schedule.h"
#include "sim/compiled.h"
#include "sim/simulator.h"
#include "support/status.h"

namespace hlsav::codegen {

/// Owns the loaded shared object and exposes the simulator-facing view.
/// Must outlive every Simulator its handle() is attached to.
class CompiledDesign {
 public:
  CompiledDesign(LoadedModule module, sim::CompiledDesignHandle handle,
                 std::vector<ProcEmit> procs)
      : module_(std::move(module)), handle_(std::move(handle)), procs_(std::move(procs)) {}

  /// Borrowed view to attach via SimOptions::compiled.
  [[nodiscard]] const sim::CompiledDesignHandle* handle() const { return &handle_; }
  /// Per-process emission outcomes (declined processes carry a reason).
  [[nodiscard]] const std::vector<ProcEmit>& procs() const { return procs_; }
  [[nodiscard]] bool from_cache() const { return module_.from_cache; }

 private:
  LoadedModule module_;
  sim::CompiledDesignHandle handle_;
  std::vector<ProcEmit> procs_;
};

/// Emits, compiles (or pulls from cache) and loads the scheduled design.
/// Errors (no compiler, unwritable cache, failed compile, every process
/// declined) come back as Status; arm_engine turns them into a logged
/// fallback to the interpreter.
[[nodiscard]] StatusOr<std::unique_ptr<CompiledDesign>> prepare(
    const ir::Design& design, const sched::DesignSchedule& schedule,
    const PrepareOptions& opt = {});

/// prepare() without its load step: emits the design and builds it
/// into the JIT cache (jit.h build_module), so a process that must not
/// run generated code can leave a warm cache for the processes that do.
[[nodiscard]] StatusOr<BuiltModule> prebuild(const ir::Design& design,
                                             const sched::DesignSchedule& schedule,
                                             const PrepareOptions& opt = {});

/// Arms `so` to run on `engine`, under the fallback contract: engine
/// selection never turns a runnable design into an error. Sets
/// so.engine; unless that is the interpreter, prepares the design into
/// `prepared` on first use (later calls reuse it) and attaches its
/// handle. Returns why work will interpret instead: "compiled engine
/// unavailable (...); interpreting" when preparation fails (no handle
/// is attached, and the next call tries again), or one "codegen
/// declined process ..." note per declined process of a fresh
/// preparation.
[[nodiscard]] std::vector<std::string> arm_engine(sim::SimOptions& so, sim::SimEngine engine,
                                                  const ir::Design& design,
                                                  const sched::DesignSchedule& schedule,
                                                  std::unique_ptr<CompiledDesign>& prepared);

}  // namespace hlsav::codegen
