#include "codegen/engine.h"

#include <cstdint>
#include <utility>

namespace hlsav::codegen {

namespace {

// Generated registry row; layout matches the hlsav_entry_t the emitter
// writes into every module (name pointer + function pointer).
struct EntryRow {
  const char* name;
  sim::CompiledProcFn fn;
};

/// The design's C source, or why there is nothing to compile.
StatusOr<EmitResult> emit_compilable(const ir::Design& design,
                                     const sched::DesignSchedule& schedule) {
  EmitResult emitted = emit_design(design, schedule);
  if (emitted.compiled_count() == 0) {
    std::string why = "codegen declined every process";
    for (const ProcEmit& pe : emitted.procs) {
      if (!pe.decline_reason.empty()) {
        why += "; '" + pe.process + "': " + pe.decline_reason;
      }
    }
    return Status::error(StatusCode::kSimError, why);
  }
  return emitted;
}

}  // namespace

StatusOr<std::unique_ptr<CompiledDesign>> prepare(const ir::Design& design,
                                                  const sched::DesignSchedule& schedule,
                                                  const PrepareOptions& opt) {
  StatusOr<EmitResult> emitted = emit_compilable(design, schedule);
  if (!emitted.ok()) return emitted.status();
  StatusOr<LoadedModule> module = compile_module(emitted->source, opt);
  if (!module.ok()) return module.status();

  const auto* rows = static_cast<const EntryRow*>(module_symbol(*module, "hlsav_entries"));
  const auto* count =
      static_cast<const std::uint32_t*>(module_symbol(*module, "hlsav_entry_count"));
  if (rows == nullptr || count == nullptr) {
    return Status::io_error("compiled module lacks its entry registry");
  }
  if (*count != emitted->compiled_count()) {
    return Status::io_error("compiled module entry count mismatch");
  }

  sim::CompiledDesignHandle handle;
  handle.procs.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    if (rows[i].name == nullptr || rows[i].fn == nullptr) {
      return Status::io_error("compiled module entry registry is malformed");
    }
    if (design.find_process(rows[i].name) == nullptr) {
      return Status::io_error("compiled module names an unknown process");
    }
    handle.procs.push_back(sim::CompiledProc{rows[i].name, rows[i].fn});
  }

  return std::make_unique<CompiledDesign>(std::move(*module), std::move(handle),
                                          std::move(emitted->procs));
}

StatusOr<BuiltModule> prebuild(const ir::Design& design, const sched::DesignSchedule& schedule,
                               const PrepareOptions& opt) {
  StatusOr<EmitResult> emitted = emit_compilable(design, schedule);
  if (!emitted.ok()) return emitted.status();
  return build_module(emitted->source, opt);
}

std::vector<std::string> arm_engine(sim::SimOptions& so, sim::SimEngine engine,
                                    const ir::Design& design,
                                    const sched::DesignSchedule& schedule,
                                    std::unique_ptr<CompiledDesign>& prepared) {
  so.engine = engine;
  if (engine == sim::SimEngine::kInterpreter) return {};
  std::vector<std::string> notes;
  if (prepared == nullptr) {
    StatusOr<std::unique_ptr<CompiledDesign>> prep = prepare(design, schedule);
    if (!prep.ok()) {
      return {"compiled engine unavailable (" + prep.status().to_string() + "); interpreting"};
    }
    prepared = std::move(*prep);
    for (const ProcEmit& pe : prepared->procs()) {
      if (!pe.decline_reason.empty()) {
        notes.push_back("codegen declined process '" + pe.process + "': " + pe.decline_reason +
                        " -- interpreting it");
      }
    }
  }
  so.compiled = prepared->handle();
  return notes;
}

}  // namespace hlsav::codegen
