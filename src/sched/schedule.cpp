#include "sched/schedule.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

namespace hlsav::sched {

unsigned op_depth(const ir::Process& proc, const ir::Op& op) {
  if (op.kind != ir::OpKind::kBin) return ir::op_traits(op.kind).depth;
  const ir::BinTraits& bt = ir::bin_traits(op.bin);
  // 1-bit logic gates pack into wide LUTs: no level of their own.
  if (bt.area == ir::BinArea::kLogic && !op.args.empty() &&
      proc.operand_width(op.args[0]) == 1) {
    return 0;
  }
  return bt.depth;
}

bool assert_only(const ir::Op& op) {
  return op.assert_tag != ir::kNoAssertTag && !op.is_extraction &&
         op.kind != ir::OpKind::kLoad && !ir::op_traits(op.kind).zero_cost;
}

std::vector<DepEdge> build_deps(const ir::Design& design, const ir::Process& proc,
                                const std::vector<ir::Op>& ops, bool ignore_war) {
  std::vector<DepEdge> edges;
  auto add = [&edges](std::size_t from, std::size_t to, unsigned delta, bool chainable,
                      bool value = false) {
    edges.push_back(DepEdge{from, to, delta, chainable, value});
  };

  // Register def/use tracking (last def and all uses since that def).
  std::unordered_map<ir::RegId, std::size_t> last_def;
  std::unordered_map<ir::RegId, std::vector<std::size_t>> uses_since_def;
  // Memory access tracking.
  std::unordered_map<ir::MemId, std::size_t> last_store;
  std::unordered_map<ir::MemId, std::vector<std::size_t>> loads_since_store;
  // Stream access tracking.
  std::unordered_map<ir::StreamId, std::size_t> last_stream_op;

  auto visit_use = [&](std::size_t i, const ir::Operand& o) {
    if (!o.is_reg()) return;
    auto it = last_def.find(o.reg);
    if (it != last_def.end()) {
      const ir::Op& def = ops[it->second];
      unsigned lat = def.latency();
      add(it->second, i, lat, lat == 0, /*value=*/true);
    }
    uses_since_def[o.reg].push_back(i);
  };

  for (std::size_t i = 0; i < ops.size(); ++i) {
    const ir::Op& op = ops[i];
    for (const ir::Operand& a : op.args) visit_use(i, a);
    if (!op.pred.is_none()) visit_use(i, op.pred);

    if (op.dest != ir::kNoReg) {
      // WAR: earlier same-state reads see the old register value in both
      // the simulator (program order) and hardware (registered read), so
      // sharing a state is fine; just preserve program order.
      if (!ignore_war) {
        for (std::size_t u : uses_since_def[op.dest]) {
          if (u != i) add(u, i, 0, true);
        }
      }
      // WAW.
      if (auto it = last_def.find(op.dest); it != last_def.end()) add(it->second, i, 0, true);
      last_def[op.dest] = i;
      uses_since_def[op.dest].clear();
    }

    if (op.kind == ir::OpKind::kLoad) {
      if (auto it = last_store.find(op.mem); it != last_store.end()) {
        add(it->second, i, 1, false);  // read-after-write: data next state
      }
      loads_since_store[op.mem].push_back(i);
    } else if (op.kind == ir::OpKind::kStore) {
      if (auto it = last_store.find(op.mem); it != last_store.end()) {
        add(it->second, i, 1, false);
      }
      for (std::size_t l : loads_since_store[op.mem]) add(l, i, 0, false);
      // Mirror stores share the mirrored store's control: never earlier.
      const ir::Memory& mem = design.memory(op.mem);
      if (mem.role == ir::MemRole::kReplica) {
        if (auto it = last_store.find(mem.replica_of); it != last_store.end()) {
          add(it->second, i, 0, false);
        }
      }
      last_store[op.mem] = i;
      loads_since_store[op.mem].clear();
    } else if (op.kind == ir::OpKind::kAssertTap && op.mem != ir::kNoMem) {
      // Replica-backed tap: may only fire once the mirrored store has
      // committed, so the checker reads coherent replica contents.
      if (auto it = last_store.find(op.mem); it != last_store.end()) {
        add(it->second, i, 1, false);
      }
    }

    if (op.is_stream_access()) {
      if (auto it = last_stream_op.find(op.stream); it != last_stream_op.end()) {
        add(it->second, i, 1, false);  // handshakes on one channel serialize
      }
      last_stream_op[op.stream] = i;
    }
  }
  (void)proc;
  (void)design;
  return edges;
}

const ProcessSchedule* DesignSchedule::find(std::string_view process) const {
  for (const ProcessSchedule& p : processes) {
    if (p.process == process) return &p;
  }
  return nullptr;
}

ProcessSchedule schedule_process(const ir::Design& design, const ir::Process& proc,
                                 const SchedOptions& opts) {
  ProcessSchedule sched;
  sched.process = proc.name;
  sched.blocks.resize(proc.blocks.size());

  // Identify pipelined loops: their header + body are scheduled together.
  std::unordered_map<ir::BlockId, const ir::LoopInfo*> pipelined_body;
  std::unordered_map<ir::BlockId, const ir::LoopInfo*> pipelined_header;
  for (const ir::LoopInfo& l : proc.loops) {
    if (!l.pipelined) continue;
    pipelined_body[l.body] = &l;
    pipelined_header[l.header] = &l;
  }

  for (const ir::BasicBlock& b : proc.blocks) {
    BlockSchedule& bs = sched.blocks[b.id];
    bs.block = b.id;
    if (auto it = pipelined_body.find(b.id); it != pipelined_body.end()) {
      bs = schedule_pipeline(design, proc, proc.block(it->second->header), b, opts);
      continue;
    }
    if (pipelined_header.contains(b.id)) {
      // Header is absorbed into the pipeline; contributes no states.
      bs.op_state.assign(b.ops.size(), 0);
      bs.num_states = 0;
      continue;
    }
    bool has_branch = b.term.kind == ir::TermKind::kBranch;
    SeqResult r = schedule_sequential(design, proc, b.ops, b.term.cond, has_branch, opts);
    bs.op_state = std::move(r.op_state);
    bs.op_chain_depth = std::move(r.op_chain_depth);
    bs.num_states = r.num_states;
  }

  sched.total_states = 0;
  for (const BlockSchedule& bs : sched.blocks) {
    sched.total_states += bs.pipelined ? bs.latency : bs.num_states;
  }
  return sched;
}

DesignSchedule schedule_design(const ir::Design& design, const SchedOptions& opts) {
  DesignSchedule out;
  out.processes.reserve(design.processes.size());
  for (const auto& p : design.processes) {
    out.processes.push_back(schedule_process(design, *p, opts));
  }
  return out;
}

LoopPerf loop_perf(const ProcessSchedule& sched, ir::BlockId body) {
  const BlockSchedule& bs = sched.of(body);
  HLSAV_CHECK(bs.pipelined, "loop_perf on a non-pipelined block");
  return LoopPerf{bs.latency, bs.ii};
}

namespace {
/// A failure block only executes when an assertion fires: all its ops are
/// tagged with an assertion id.
bool is_failure_block(const ir::BasicBlock& b) {
  if (b.ops.empty()) return false;
  for (const ir::Op& op : b.ops) {
    if (op.assert_tag == ir::kNoAssertTag) return false;
  }
  return b.term.kind == ir::TermKind::kJump;
}
}  // namespace

unsigned passing_path_states(const ir::Process& proc, const ProcessSchedule& sched) {
  std::vector<bool> reachable(proc.blocks.size(), false);
  std::vector<ir::BlockId> work{proc.entry};
  while (!work.empty()) {
    ir::BlockId id = work.back();
    work.pop_back();
    if (id == ir::kNoBlock || reachable[id]) continue;
    reachable[id] = true;
    const ir::BasicBlock& b = proc.block(id);
    auto push = [&](ir::BlockId next) {
      if (next != ir::kNoBlock && !reachable[next] && !is_failure_block(proc.block(next))) {
        work.push_back(next);
      }
    };
    switch (b.term.kind) {
      case ir::TermKind::kJump:
        push(b.term.on_true);
        break;
      case ir::TermKind::kBranch:
        push(b.term.on_true);
        push(b.term.on_false);
        break;
      case ir::TermKind::kReturn:
        break;
    }
  }
  unsigned states = 0;
  for (const ir::BasicBlock& b : proc.blocks) {
    if (!reachable[b.id]) continue;
    const BlockSchedule& bs = sched.of(b.id);
    states += bs.pipelined ? bs.latency : bs.num_states;
  }
  return states;
}

std::string print_schedule(const ir::Design& design, const ProcessSchedule& sched) {
  const ir::Process* proc = design.find_process(sched.process);
  HLSAV_CHECK(proc != nullptr, "schedule for unknown process");
  std::ostringstream os;
  os << "schedule " << sched.process << " (total_states=" << sched.total_states << ")\n";
  for (const ir::BasicBlock& b : proc->blocks) {
    const BlockSchedule& bs = sched.blocks[b.id];
    os << "  " << b.name << ": ";
    if (bs.pipelined) {
      os << "pipelined latency=" << bs.latency << " rate=" << bs.ii;
    } else {
      os << "states=" << bs.num_states;
    }
    os << '\n';
    for (std::size_t i = 0; i < b.ops.size(); ++i) {
      os << "    s" << bs.op_state[i] << ": " << ir::op_traits(b.ops[i].kind).name;
      if (b.ops[i].assert_tag != ir::kNoAssertTag) {
        os << (b.ops[i].is_extraction ? " [extract#" : " [assert#")
           << b.ops[i].assert_tag << "]";
      }
      os << '\n';
    }
  }
  return os.str();
}

ir::ProcessDebugInfo debug_info(const ir::Process& proc, const ProcessSchedule& sched) {
  std::vector<ir::BlockStateView> views(proc.blocks.size());
  for (const ir::BasicBlock& b : proc.blocks) {
    const BlockSchedule& bs = sched.of(b.id);
    ir::BlockStateView& v = views[b.id];
    v.op_state = &bs.op_state;
    v.header_op_state = &bs.header_op_state;
    v.num_states = bs.num_states;
    v.pipelined = bs.pipelined;
  }
  return {proc, std::move(views)};
}

}  // namespace hlsav::sched
