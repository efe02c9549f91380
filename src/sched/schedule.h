// HLS scheduling: basic blocks to FSM states, pipelined loops to modulo
// schedules.
//
// Timing model (calibrated to Impulse-C's observable behaviour, see
// DESIGN.md):
//  - Combinational ops chain within a state up to `chain_depth` levels.
//  - Block RAMs are synchronous: a load issues in state s (using the
//    memory's single application-side port) and its data is usable,
//    chainably, from state s+1. Loads never hoist above a program-order
//    earlier store to the same memory.
//  - Stream ops occupy a one-op-per-state channel controller in
//    sequential code; inside pipelined loops a stream *write* occupies
//    the controller for `stream_write_occupancy` slots (request +
//    transfer), which is what makes an inlined assertion's failure-send
//    halve a rate-1 pipeline (paper Table 4).
//  - Ops carrying an assert_tag (the inlined condition of an unoptimized
//    assertion) may not share a state with application ops -- the
//    assertion is its own statement in the generated state machine --
//    except loads, which may issue early into application states when a
//    port is free. Extraction ops (is_extraction) merge freely.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/debug_info.h"
#include "ir/ir.h"

namespace hlsav::sched {

struct SchedOptions {
  /// Maximum chained combinational levels per state.
  unsigned chain_depth = 4;
  /// Usable application-side ports per block RAM (the platform wrapper
  /// owns the second physical port; see paper §3.2).
  unsigned mem_ports = 1;
  /// Controller slots a stream write occupies inside a pipelined loop.
  unsigned stream_write_occupancy = 2;
  /// Upper bound for initiation-interval search.
  unsigned max_ii = 64;
};

/// Combinational depth contributed by an op (0 = wire): its trait-table
/// depth, except that 1-bit logic gates pack into wide LUTs and
/// contribute no level of their own.
[[nodiscard]] unsigned op_depth(const ir::Process& proc, const ir::Op& op);

struct BlockSchedule {
  ir::BlockId block = ir::kNoBlock;
  /// Issue state of each op, 0-based within the block.
  std::vector<unsigned> op_state;
  /// Accumulated combinational depth of each op within its state (the
  /// timing model's critical-path input).
  std::vector<unsigned> op_chain_depth;
  /// Sequential states this block contributes (0 for merged empty blocks).
  unsigned num_states = 0;

  // Pipelined loop bodies only:
  bool pipelined = false;
  unsigned ii = 0;       // initiation interval ("rate" in the paper)
  unsigned latency = 0;  // pipeline depth in cycles ("latency")
  /// Issue state of each merged header op (pipelined loops absorb the
  /// loop test into the pipeline).
  std::vector<unsigned> header_op_state;
};

struct ProcessSchedule {
  std::string process;
  std::vector<BlockSchedule> blocks;  // indexed by BlockId
  /// Total FSM states (feeds the area model's state-register costing).
  unsigned total_states = 0;

  [[nodiscard]] const BlockSchedule& of(ir::BlockId b) const { return blocks.at(b); }
};

struct DesignSchedule {
  std::vector<ProcessSchedule> processes;

  [[nodiscard]] const ProcessSchedule* find(std::string_view process) const;
};

/// Performance of one pipelined loop, in the paper's terms.
struct LoopPerf {
  unsigned latency = 0;
  unsigned rate = 0;
};

/// Schedules every process in the design. Throws InternalError on
/// malformed input (run ir::verify first).
[[nodiscard]] DesignSchedule schedule_design(const ir::Design& design,
                                             const SchedOptions& opts = {});

/// Schedules a single process.
[[nodiscard]] ProcessSchedule schedule_process(const ir::Design& design, const ir::Process& proc,
                                               const SchedOptions& opts = {});

/// Latency/rate of the pipelined loop whose body is `body`.
[[nodiscard]] LoopPerf loop_perf(const ProcessSchedule& sched, ir::BlockId body);

/// Builds the shared op<->state<->source table for a scheduled process
/// (borrows `sched`'s issue-state vectors; keep both alive). This is
/// the one mapping the profiler, the replay decoder, the RTL printers
/// and the compiled-simulation backend agree on.
[[nodiscard]] ir::ProcessDebugInfo debug_info(const ir::Process& proc,
                                              const ProcessSchedule& sched);

/// FSM states on the passing path: the sum of states over blocks
/// reachable without an assertion failing (assertion-failure blocks are
/// excluded). This is the paper's latency metric -- failure branches
/// cost area but never application cycles unless an assertion fires.
[[nodiscard]] unsigned passing_path_states(const ir::Process& proc,
                                           const ProcessSchedule& sched);

/// Renders a schedule for debugging.
[[nodiscard]] std::string print_schedule(const ir::Design& design, const ProcessSchedule& sched);

// Internals shared by sequential and modulo scheduling --------------------

/// Dependence edge: op `from` must complete before op `to` issues
/// (`min_delta` extra states), or may share a state (min_delta 0).
struct DepEdge {
  std::size_t from = 0;
  std::size_t to = 0;
  unsigned min_delta = 0;   // issue(to) >= issue(from) + min_delta
  bool chainable = false;   // same-state OK if depth budget allows
  bool carries_value = false;  // RAW edge: contributes to chain depth
};

/// The state-sharing rule for inlined assertion logic: a tagged op that
/// is not an extraction, a load or a zero-cost wire may share a state
/// (or pipeline stage) only with other such ops.
[[nodiscard]] bool assert_only(const ir::Op& op);

/// Builds intra-block dependence edges over `ops` (program order indices).
/// Pipelined bodies pass `ignore_war = true`: write-after-read edges are
/// resolved by modulo variable expansion (per-stage register copies), so
/// they must not constrain the initiation interval. Mirror stores into
/// replica RAMs are ordered no earlier than the application store they
/// mirror (they share its control signals).
[[nodiscard]] std::vector<DepEdge> build_deps(const ir::Design& design, const ir::Process& proc,
                                              const std::vector<ir::Op>& ops,
                                              bool ignore_war = false);

/// Schedules a straight-line op list sequentially; returns issue states.
/// `term_cond`: optional operand that must be available (registered or
/// chained) by the final state; the state count is extended if needed.
struct SeqResult {
  std::vector<unsigned> op_state;
  std::vector<unsigned> op_chain_depth;
  unsigned num_states = 0;
};
[[nodiscard]] SeqResult schedule_sequential(const ir::Design& design, const ir::Process& proc,
                                            const std::vector<ir::Op>& ops,
                                            const ir::Operand& term_cond, bool has_branch,
                                            const SchedOptions& opts);

/// Modulo-schedules a pipelined loop (header ops + body ops). Returns the
/// block schedule with ii/latency filled in.
[[nodiscard]] BlockSchedule schedule_pipeline(const ir::Design& design, const ir::Process& proc,
                                              const ir::BasicBlock& header,
                                              const ir::BasicBlock& body,
                                              const SchedOptions& opts);

}  // namespace hlsav::sched
