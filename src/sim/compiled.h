// Compiled-simulation ABI: the contract between the Simulator and
// AOT-compiled process functions produced by hlsav_codegen.
//
// A compiled process is one C function driving the whole FSMD of that
// process: straight-line native uint64_t arithmetic for every scheduled
// op, direct gotos between blocks, and callbacks into the Simulator for
// the ops that touch shared state (stream handshakes, extern calls,
// assertion machinery) or wall-clock (deadline polls). All mutable
// per-process state lives in buffers the Simulator owns and passes in,
// so a compiled function is reentrant and never blocks: when a stream
// op cannot complete it records its resume position in the state words
// and returns kRetBlocked; the next call re-enters at exactly that op.
//
// The simulator side of the contract lives here (sim must not depend on
// codegen); the generated-code side is a prelude hlsav_codegen emits
// from these same constants, so the numeric surface cannot drift. The
// only hand-synchronized text is the two typedefs below -- bump
// kCompiledAbiVersion whenever anything in this file changes shape, and
// stale cached .so files are rejected by their embedded version symbol.
//
// Fault injection: the generated code applies the single fault a
// campaign site arms for the faults that live inside a process -- a
// skipped block, a stuck branch, a narrowed comparison, a BRAM cell
// fault -- through fault words the simulator fills in before the run
// (ProcLayout). Every fault word is neutral when nothing is armed,
// and all but the skip word are masks, so the unfaulted code pays a few
// ALU ops and no extra branches. Stream, extern and CPU-channel faults
// live in the simulator's callbacks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "ir/ir.h"

namespace hlsav::sim {

/// Bump on any ABI change (state-word layout, callback table, return
/// encoding, exported symbol set). Part of the on-disk cache key and
/// embedded in every generated object.
inline constexpr std::uint32_t kCompiledAbiVersion = 2;

/// Execution engine selection (SimOptions::engine).
enum class SimEngine : std::uint8_t {
  kInterpreter,  // always interpret (the default)
  kCompiled,     // use attached compiled functions; interpret what they decline
  kAuto,         // same as kCompiled when a handle is attached, else interpret
};

// ---- per-process state words (the `st` argument) -----------------------
// All simulator<->compiled communication besides registers and memories
// goes through this array of uint64 slots: kStWords fixed words, then
// the process's fault words (ProcLayout).
inline constexpr std::uint32_t kStCycle = 0;        // local clock
inline constexpr std::uint32_t kStBlockEntry = 1;   // local clock at block entry
inline constexpr std::uint32_t kStPipeStart = 2;    // pipelined loop start cycle
inline constexpr std::uint32_t kStPipeIter = 3;     // pipelined loop iteration
inline constexpr std::uint32_t kStMaxCycles = 4;    // SimOptions::max_cycles
inline constexpr std::uint32_t kStResumeBlock = 5;  // BlockId to resume in
inline constexpr std::uint32_t kStResumeOp = 6;     // op index to resume at
inline constexpr std::uint32_t kStProgress = 7;     // any op/retire progressed
inline constexpr std::uint32_t kStHalt = 8;         // design halted (finish block, then return)
inline constexpr std::uint32_t kStInPipe = 9;       // resume position is inside a pipelined loop
inline constexpr std::uint32_t kStFlags = 10;       // bit 0: deadline armed
inline constexpr std::uint32_t kStSkipBlock = 11;   // BlockId whose ops a fault skips
inline constexpr std::uint32_t kStPidx = 12;        // process index passed to callbacks
inline constexpr std::uint32_t kStWords = 13;       // fixed words; fault words follow

inline constexpr std::uint64_t kStFlagDeadline = 1;
inline constexpr std::uint64_t kNoSkipBlock = ~std::uint64_t{0};

// ---- fault words (after the fixed words) --------------------------------
/// Stuck-branch word: bit 1 is the branch outcome when its condition
/// holds, bit 0 the outcome when it does not.
inline constexpr std::uint64_t kBranchFree = 2;
inline constexpr std::uint64_t kBranchTaken = 3;
inline constexpr std::uint64_t kBranchNotTaken = 0;

/// The per-process layout a compiled function is generated against.
///
/// Memory table: the function reaches memory `mems[j]` as `mem[j]` (the
/// simulator passes each process its own pointer table), and reads its
/// process index from kStPidx, so processes that differ only in which
/// memories and which process slot they use share one function.
///
/// Fault words: the state array is kStWords fixed words followed by
///   * one stuck-branch word per block (indexed by BlockId),
///   * two words per memory-table entry, applied to every stored word
///     as (v & AND) ^ XOR (a stuck-at-1 bit is cleared, then flipped),
///   * one operand mask per source line carrying a comparison: both
///     operands of every comparison on that line are ANDed with it.
///
/// Codegen derives it from the IR, for emission and again for the
/// loaded handle (CompiledProc::layout), which the simulator reads.
struct ProcLayout {
  std::uint32_t branch = kStWords;
  std::uint32_t store = kStWords;
  std::uint32_t compare = kStWords;
  std::vector<std::uint32_t> mems;   // MemIds the process loads or stores, ascending
  std::vector<std::uint32_t> lines;  // comparison lines, ascending
  std::uint32_t words = kStWords;

  [[nodiscard]] static ProcLayout of(const ir::Process& p) {
    ProcLayout l;
    for (const ir::BasicBlock& b : p.blocks) {
      for (const ir::Op& op : b.ops) {
        if (op.is_memory_access()) l.mems.push_back(op.mem);
        if (op.is_comparison() && op.loc.line != 0) {
          l.lines.push_back(op.loc.line);
        }
      }
    }
    for (std::vector<std::uint32_t>* v : {&l.mems, &l.lines}) {
      std::sort(v->begin(), v->end());
      v->erase(std::unique(v->begin(), v->end()), v->end());
    }
    l.store = l.branch + static_cast<std::uint32_t>(p.blocks.size());
    l.compare = l.store + 2 * static_cast<std::uint32_t>(l.mems.size());
    l.words = l.compare + static_cast<std::uint32_t>(l.lines.size());
    return l;
  }

  /// Index of `mem` in the memory table, or kNone.
  [[nodiscard]] std::uint32_t mem_slot(std::uint32_t mem) const { return index_of(mems, mem); }
  /// First of the AND/XOR words for stores into `mem`, or 0 when the
  /// process never accesses it.
  [[nodiscard]] std::uint32_t store_word(std::uint32_t mem) const {
    std::uint32_t i = mem_slot(mem);
    return i == kNone ? 0 : store + 2 * i;
  }
  /// State word holding the operand mask of comparisons on `line`, or 0
  /// when no comparison sits on it.
  [[nodiscard]] std::uint32_t compare_word(std::uint32_t line) const {
    std::uint32_t i = index_of(lines, line);
    return i == kNone || line == 0 ? 0 : compare + i;
  }

  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

 private:
  static std::uint32_t index_of(const std::vector<std::uint32_t>& v, std::uint32_t x) {
    auto it = std::lower_bound(v.begin(), v.end(), x);
    return it == v.end() || *it != x ? kNone : static_cast<std::uint32_t>(it - v.begin());
  }
};

// ---- callback table (the `cb` argument) --------------------------------
inline constexpr std::uint32_t kCbStreamRead = 0;
inline constexpr std::uint32_t kCbStreamWrite = 1;
inline constexpr std::uint32_t kCbExtern = 2;
inline constexpr std::uint32_t kCbAssert = 3;
inline constexpr std::uint32_t kCbPoll = 4;
inline constexpr std::uint32_t kCbCount = 5;

/// Callback results.
inline constexpr std::uint32_t kCbOk = 0;
inline constexpr std::uint32_t kCbBlocked = 1;  // stream op cannot complete; resume here
inline constexpr std::uint32_t kCbHalt = 2;     // op completed and halted the design

/// Op callback: executes op `op` of block `block` of process `pidx` at
/// local time `at`. Slots kCbStreamRead..kCbAssert. Mirrored verbatim
/// in the generated prelude -- keep in sync with codegen::emit.
using OpCallbackFn = std::uint32_t (*)(void* sim, std::uint32_t pidx, std::uint32_t block,
                                       std::uint32_t op, std::uint64_t at);
/// Deadline poll callback (slot kCbPoll): returns nonzero when the
/// wall-clock watchdog expired (the simulator has already halted).
using PollCallbackFn = std::uint32_t (*)(void* sim);

// ---- compiled process entry point --------------------------------------
/// Runs the process until it finishes, blocks, halts or trips a cycle
/// limit. Returns (tag << 32) | payload.
using CompiledProcFn = std::uint64_t (*)(std::uint64_t* regs, std::uint64_t* st,
                                         std::uint64_t* const* mems, void* sim,
                                         const void* const* cb);

inline constexpr std::uint32_t kRetDone = 0;
inline constexpr std::uint32_t kRetBlocked = 1;  // resume position saved in st
inline constexpr std::uint32_t kRetHalted = 2;
inline constexpr std::uint32_t kRetCycleLimit = 3;
inline constexpr std::uint32_t kRetCycleLimitPipe = 4;  // payload: LoopInfo index

[[nodiscard]] inline std::uint32_t ret_tag(std::uint64_t r) {
  return static_cast<std::uint32_t>(r >> 32);
}
[[nodiscard]] inline std::uint32_t ret_payload(std::uint64_t r) {
  return static_cast<std::uint32_t>(r);
}

// ---- what the simulator consumes ---------------------------------------
/// One compiled application process, matched to the design by name.
struct CompiledProc {
  std::string process;
  CompiledProcFn fn = nullptr;
  /// The layout `fn` was generated against (computed once per compiled
  /// design, not per simulator).
  ProcLayout layout;
};

/// The compiled design as the Simulator sees it: a borrowed view into a
/// loaded shared object. codegen::CompiledDesign owns the dlopen handle
/// and must outlive every Simulator its handle is attached to.
struct CompiledDesignHandle {
  /// Compiled processes (a subset of the application processes when
  /// codegen declined some). Matched by name; unmatched processes
  /// interpret as usual.
  std::vector<CompiledProc> procs;
  /// Content-address of the generated source (cache key component);
  /// informational.
  std::string key;
};

}  // namespace hlsav::sim
