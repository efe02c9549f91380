// C source emission for the compiled-simulation backend.
//
// emit_design() walks every scheduled application process and lowers its
// FSMD to one specialized C function: ops are monomorphized to their
// literal widths as native uint64_t arithmetic, blocks become labels
// joined by gotos, and the schedule's state offsets are folded into the
// timestamps handed to the simulator callbacks. The emitted translation
// unit is self-contained C99 whose only runtime dependency is the
// callback table described by sim/compiled.h.
//
// Emission is per-process best-effort: a process codegen cannot
// represent faithfully (a register wider than BitVector::kMaxWidth, or a
// missing schedule) is declined with a reason and left to the
// interpreter; the rest of the design still compiles.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "ir/ir.h"
#include "sched/schedule.h"

namespace hlsav::codegen {

/// Outcome of emitting one application process.
struct ProcEmit {
  std::string process;
  std::string symbol;          // function name (shared by identical bodies); empty when declined
  std::string decline_reason;  // why codegen declined (symbol empty)

  [[nodiscard]] bool compiled() const { return !symbol.empty(); }
};

struct EmitResult {
  /// Complete C translation unit (prelude, process functions, entry
  /// registry). Does not yet contain the design key; the jit appends it
  /// after hashing -- see jit::content_key.
  std::string source;
  /// One entry per application process, in declaration order.
  std::vector<ProcEmit> procs;

  [[nodiscard]] std::size_t compiled_count() const {
    std::size_t n = 0;
    for (const ProcEmit& p : procs) n += p.compiled() ? 1 : 0;
    return n;
  }
};

/// Lowers every scheduled application process of `design` to C.
[[nodiscard]] EmitResult emit_design(const ir::Design& design,
                                     const sched::DesignSchedule& schedule);

}  // namespace hlsav::codegen
