// Sequential (FSM) scheduling of straight-line op lists.
//
// Greedy ASAP in program order under the timing model documented in
// schedule.h: chaining budget, one application port per block RAM and
// state, exclusive states for stream handshakes, and the assert-tag
// state-sharing rule that makes an inlined assertion occupy its own
// state(s) in the generated state machine.
#include <map>
#include <unordered_map>

#include "sched/schedule.h"

namespace hlsav::sched {

namespace {

enum class StateMark : std::uint8_t { kFree, kApp, kAssertOnly, kExclusive };

struct StateInfo {
  StateMark mark = StateMark::kFree;
  std::map<ir::MemId, unsigned> port_use;
  bool has_ops = false;
};

/// What kind of state this op may share.
StateMark desired_mark(const ir::Op& op, bool streams_exclusive) {
  if (op.is_stream_access() && streams_exclusive) return StateMark::kExclusive;
  return assert_only(op) ? StateMark::kAssertOnly : StateMark::kApp;
}

bool mark_compatible(StateMark state, StateMark want) {
  if (state == StateMark::kFree) return true;
  if (state == StateMark::kExclusive || want == StateMark::kExclusive) return false;
  return state == want;
}

}  // namespace

SeqResult schedule_sequential(const ir::Design& design, const ir::Process& proc,
                              const std::vector<ir::Op>& ops, const ir::Operand& term_cond,
                              bool has_branch, const SchedOptions& opts) {

  std::vector<DepEdge> edges = build_deps(design, proc, ops);
  // Index incoming edges per op.
  std::vector<std::vector<const DepEdge*>> in(ops.size());
  for (const DepEdge& e : edges) in[e.to].push_back(&e);

  std::vector<unsigned> state(ops.size(), 0);
  std::vector<unsigned> depth(ops.size(), 0);
  std::vector<StateInfo> states;
  auto state_info = [&states](unsigned s) -> StateInfo& {
    if (s >= states.size()) states.resize(s + 1);
    return states[s];
  };

  for (std::size_t i = 0; i < ops.size(); ++i) {
    const ir::Op& op = ops[i];
    unsigned earliest = 0;
    for (const DepEdge* e : in[i]) {
      earliest = std::max(earliest, state[e->from] + e->min_delta);
    }

    if (ir::op_traits(op.kind).zero_cost) {
      // Taps and residual assert markers are wires: they take no
      // resources and never open a new state on their own unless a
      // dependence forces one.
      state[i] = earliest;
      depth[i] = 0;
      state_info(earliest);  // ensure the state exists for counting
      continue;
    }

    StateMark want = desired_mark(op, /*streams_exclusive=*/true);
    unsigned s = earliest;
    while (true) {
      StateInfo& si = state_info(s);
      if (!mark_compatible(si.mark, want) || (want == StateMark::kExclusive && si.has_ops)) {
        ++s;
        continue;
      }
      if (op.is_memory_access() && si.port_use[op.mem] >= opts.mem_ports) {
        ++s;
        continue;
      }
      // Chaining depth: value-producing predecessors in this same state.
      unsigned d = op_depth(proc, op);
      bool has_same_state_pred = false;
      for (const DepEdge* e : in[i]) {
        if (!e->carries_value || !e->chainable) continue;
        if (state[e->from] == s && !ir::op_traits(ops[e->from].kind).zero_cost) {
          has_same_state_pred = true;
          d = std::max(d, depth[e->from] + op_depth(proc, op));
        }
      }
      if (d > opts.chain_depth && has_same_state_pred) {
        ++s;
        continue;
      }
      // Place.
      state[i] = s;
      depth[i] = std::min(d, opts.chain_depth);
      si.has_ops = true;
      if (si.mark == StateMark::kFree) si.mark = want;
      if (op.is_memory_access()) ++si.port_use[op.mem];
      break;
    }
  }

  SeqResult out;
  out.op_state = std::move(state);
  out.op_chain_depth = std::move(depth);

  unsigned need = 0;
  bool any = false;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    need = std::max(need, out.op_state[i]);
    any = true;
  }
  // The terminator condition must be available by the final state.
  if (term_cond.is_reg()) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].dest == term_cond.reg) {
        need = std::max(need, out.op_state[i] + ops[i].latency());
      }
    }
  }
  if (!any && !has_branch) {
    out.num_states = 0;
  } else {
    out.num_states = need + 1;
  }
  if (has_branch && out.num_states == 0) out.num_states = 1;
  return out;
}

}  // namespace hlsav::sched
