// Iterative modulo scheduling for pipelined loops.
//
// The loop test (header ops) is absorbed into the pipeline, so one loop
// iteration spans the concatenated header+body op list. The initiation
// interval starts at the resource-constrained minimum (ResMII) and is
// increased until a schedule satisfying all modulo resource constraints
// and loop-carried dependences exists.
//
// The paper's Table 4 numbers come out of exactly this machinery: a
// stream write occupies the channel controller for
// `stream_write_occupancy` modulo slots (an inlined assertion's failure
// send therefore forces II >= 2 on a rate-1 loop), and every block-RAM
// access occupies the memory's single application port for one slot
// (three accesses -> II 3).
#include <map>
#include <unordered_map>

#include "sched/schedule.h"

namespace hlsav::sched {

namespace {

struct TrialResult {
  bool ok = false;
  std::vector<unsigned> state;
  std::vector<unsigned> depth;
};

/// One modulo-scheduling attempt at a fixed II.
TrialResult try_schedule(const ir::Process& proc, const std::vector<ir::Op>& ops,
                         const std::vector<std::vector<const DepEdge*>>& in, unsigned ii,
                         const SchedOptions& opts) {
  TrialResult r;
  r.state.assign(ops.size(), 0);
  r.depth.assign(ops.size(), 0);
  std::vector<unsigned>& depth = r.depth;

  // Modulo reservation tables.
  std::vector<std::map<ir::MemId, unsigned>> port_use(ii);
  std::vector<std::map<ir::StreamId, unsigned>> stream_use(ii);
  // Per absolute stage: whether it holds application / assert-only ops.
  std::map<unsigned, bool> stage_has_app;
  std::map<unsigned, bool> stage_has_assert;

  const unsigned stage_limit = 16 * ii + 64;  // search cutoff

  for (std::size_t i = 0; i < ops.size(); ++i) {
    const ir::Op& op = ops[i];
    unsigned earliest = 0;
    for (const DepEdge* e : in[i]) {
      earliest = std::max(earliest, r.state[e->from] + e->min_delta);
    }

    if (ir::op_traits(op.kind).zero_cost) {
      r.state[i] = earliest;
      continue;
    }

    bool want_assert_only = assert_only(op);
    unsigned s = earliest;
    for (;; ++s) {
      if (s > stage_limit) return r;  // infeasible at this II
      // Stage-sharing rule for inlined assertion logic.
      if (want_assert_only && stage_has_app[s]) continue;
      if (!want_assert_only && stage_has_assert[s]) continue;
      // Modulo resources.
      if (op.is_memory_access() && port_use[s % ii][op.mem] >= opts.mem_ports) continue;
      if (op.is_stream_access()) {
        unsigned occ = op.kind == ir::OpKind::kStreamWrite ? opts.stream_write_occupancy : 1;
        occ = std::min(occ, ii);
        bool free = true;
        for (unsigned k = 0; k < occ; ++k) {
          if (stream_use[(s + k) % ii][op.stream] >= 1) {
            free = false;
            break;
          }
        }
        if (!free) continue;
      }
      // Chaining depth within the stage.
      unsigned d = op_depth(proc, op);
      bool has_pred = false;
      for (const DepEdge* e : in[i]) {
        if (!e->carries_value || !e->chainable) continue;
        if (r.state[e->from] == s && !ir::op_traits(ops[e->from].kind).zero_cost) {
          has_pred = true;
          d = std::max(d, depth[e->from] + op_depth(proc, op));
        }
      }
      if (d > opts.chain_depth && has_pred) continue;

      // Place.
      r.state[i] = s;
      depth[i] = std::min(d, opts.chain_depth);
      if (want_assert_only) {
        stage_has_assert[s] = true;
      } else {
        stage_has_app[s] = true;
      }
      if (op.is_memory_access()) ++port_use[s % ii][op.mem];
      if (op.is_stream_access()) {
        unsigned occ = op.kind == ir::OpKind::kStreamWrite ? opts.stream_write_occupancy : 1;
        occ = std::min(occ, ii);
        for (unsigned k = 0; k < occ; ++k) ++stream_use[(s + k) % ii][op.stream];
      }
      break;
    }
  }
  r.ok = true;
  return r;
}

/// Checks loop-carried dependences for a candidate schedule.
bool carried_deps_ok(const std::vector<ir::Op>& ops, const std::vector<unsigned>& state,
                     unsigned ii) {
  // Registers: a use at index u before the first def of that register
  // reads the previous iteration's (last) def.
  std::unordered_map<ir::RegId, std::size_t> first_def;
  std::unordered_map<ir::RegId, std::size_t> last_def;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].dest == ir::kNoReg) continue;
    if (!first_def.contains(ops[i].dest)) first_def[ops[i].dest] = i;
    last_def[ops[i].dest] = i;
  }
  auto check_reg_use = [&](std::size_t u, const ir::Operand& o) {
    if (!o.is_reg()) return true;
    auto fit = first_def.find(o.reg);
    if (fit == first_def.end() || u < fit->second) {
      if (fit == first_def.end()) return true;  // live-in, loop-invariant
      std::size_t d = last_def.at(o.reg);
      unsigned lat = std::max(1u, ops[d].latency());
      return state[u] + ii >= state[d] + lat;
    }
    return true;
  };
  for (std::size_t i = 0; i < ops.size(); ++i) {
    for (const ir::Operand& a : ops[i].args) {
      if (!check_reg_use(i, a)) return false;
    }
    if (!ops[i].pred.is_none() && !check_reg_use(i, ops[i].pred)) return false;
  }

  // Memory: a load before a store to the same memory must not overtake
  // the previous iteration's store; stores keep order across iterations.
  std::unordered_map<ir::MemId, std::size_t> first_access;
  std::unordered_map<ir::MemId, std::size_t> last_store;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == ir::OpKind::kStore) last_store[ops[i].mem] = i;
    if (ops[i].is_memory_access() && !first_access.contains(ops[i].mem)) {
      first_access[ops[i].mem] = i;
    }
  }
  for (const auto& [mem, st] : last_store) {
    auto fa = first_access.find(mem);
    if (fa == first_access.end()) continue;
    if (fa->second < st) {
      if (state[fa->second] + ii < state[st] + 1) return false;
    }
  }

  // Streams: one iteration's first access on a channel must follow the
  // previous iteration's last access.
  std::unordered_map<ir::StreamId, std::size_t> first_stream;
  std::unordered_map<ir::StreamId, std::size_t> last_stream;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (!ops[i].is_stream_access()) continue;
    if (!first_stream.contains(ops[i].stream)) first_stream[ops[i].stream] = i;
    last_stream[ops[i].stream] = i;
  }
  for (const auto& [stream, last] : last_stream) {
    std::size_t first = first_stream.at(stream);
    if (first != last && state[first] + ii < state[last] + 1) return false;
  }
  return true;
}

}  // namespace

BlockSchedule schedule_pipeline(const ir::Design& design, const ir::Process& proc,
                                const ir::BasicBlock& header, const ir::BasicBlock& body,
                                const SchedOptions& opts) {

  std::vector<ir::Op> ops;
  ops.reserve(header.ops.size() + body.ops.size());
  for (const ir::Op& op : header.ops) ops.push_back(op);
  for (const ir::Op& op : body.ops) ops.push_back(op);

  std::vector<DepEdge> edges = build_deps(design, proc, ops, /*ignore_war=*/true);
  std::vector<std::vector<const DepEdge*>> in(ops.size());
  for (const DepEdge& e : edges) in[e.to].push_back(&e);

  // Resource-constrained minimum II.
  std::map<ir::MemId, unsigned> mem_accesses;
  std::map<ir::StreamId, unsigned> stream_occ;
  for (const ir::Op& op : ops) {
    if (op.is_memory_access()) ++mem_accesses[op.mem];
    if (op.kind == ir::OpKind::kStreamRead) stream_occ[op.stream] += 1;
    if (op.kind == ir::OpKind::kStreamWrite) stream_occ[op.stream] += opts.stream_write_occupancy;
  }
  unsigned res_mii = 1;
  for (const auto& [mem, n] : mem_accesses) {
    res_mii = std::max(res_mii, (n + opts.mem_ports - 1) / opts.mem_ports);
  }
  for (const auto& [stream, occ] : stream_occ) res_mii = std::max(res_mii, occ);

  for (unsigned ii = res_mii; ii <= opts.max_ii; ++ii) {
    TrialResult trial = try_schedule(proc, ops, in, ii, opts);
    if (!trial.ok) continue;
    if (!carried_deps_ok(ops, trial.state, ii)) continue;

    BlockSchedule bs;
    bs.block = body.id;
    bs.pipelined = true;
    bs.ii = ii;
    unsigned max_state = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) max_state = std::max(max_state, trial.state[i]);
    bs.latency = max_state + 1;
    bs.header_op_state.assign(trial.state.begin(),
                              trial.state.begin() + static_cast<long>(header.ops.size()));
    bs.op_state.assign(trial.state.begin() + static_cast<long>(header.ops.size()),
                       trial.state.end());
    bs.op_chain_depth.assign(trial.depth.begin() + static_cast<long>(header.ops.size()),
                             trial.depth.end());
    return bs;
  }
  internal_error("sched/pipeline", 0,
                 "no feasible initiation interval <= " + std::to_string(opts.max_ii) +
                     " for pipelined loop in process '" + proc.name + "'");
}

}  // namespace hlsav::sched
