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

}  // namespace

StatusOr<std::unique_ptr<CompiledDesign>> prepare(const ir::Design& design,
                                                  const sched::DesignSchedule& schedule,
                                                  const PrepareOptions& opt) {
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

  CompileOptions copt;
  copt.compiler = opt.compiler;
  copt.cache_dir = opt.cache_dir;
  copt.keep_source = opt.keep_source;
  StatusOr<LoadedModule> module = compile_module(emitted.source, copt);
  if (!module.ok()) return module.status();

  const auto* rows = static_cast<const EntryRow*>(module_symbol(*module, "hlsav_entries"));
  const auto* count =
      static_cast<const std::uint32_t*>(module_symbol(*module, "hlsav_entry_count"));
  if (rows == nullptr || count == nullptr) {
    return Status::io_error("compiled module lacks its entry registry");
  }
  if (*count != emitted.compiled_count()) {
    return Status::io_error("compiled module entry count mismatch");
  }

  sim::CompiledDesignHandle handle;
  handle.key = module->key;
  handle.procs.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    if (rows[i].name == nullptr || rows[i].fn == nullptr) {
      return Status::io_error("compiled module entry registry is malformed");
    }
    const ir::Process* p = design.find_process(rows[i].name);
    if (p == nullptr) return Status::io_error("compiled module names an unknown process");
    handle.procs.push_back(
        sim::CompiledProc{rows[i].name, rows[i].fn, sim::ProcLayout::of(*p)});
  }

  return std::make_unique<CompiledDesign>(std::move(*module), std::move(handle),
                                          std::move(emitted.procs));
}

}  // namespace hlsav::codegen
