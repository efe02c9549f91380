#include "rtl/netlist.h"

#include <algorithm>
#include <map>
#include <sstream>

namespace hlsav::rtl {

namespace {

unsigned operand_width(const ir::Process& p, const ir::Op& op) {
  if (!op.args.empty()) {
    unsigned w = 0;
    for (const ir::Operand& a : op.args) w = std::max(w, p.operand_width(a));
    return w;
  }
  return op.dest != ir::kNoReg ? p.reg(op.dest).width : 1;
}

void add_block_ops(const ir::Process& p, const ir::BasicBlock& b, const sched::BlockSchedule& bs,
                   const ir::ProcessDebugInfo& dbg, ProcessNetlist& out,
                   std::map<ir::RegId, unsigned>& writers) {
  // Group ops per state to find carry widths and chain depths.
  std::map<unsigned, unsigned> state_carry;
  for (std::size_t i = 0; i < b.ops.size(); ++i) {
    const ir::Op& op = b.ops[i];
    if (op.dest != ir::kNoReg) ++writers[op.dest];
    if (ir::op_traits(op.kind).wiring) continue;

    FuInst fu;
    fu.kind = op.kind;
    fu.bin = op.bin;
    fu.un = op.un;
    fu.width = operand_width(p, op);
    fu.chain_depth = i < bs.op_chain_depth.size() ? bs.op_chain_depth[i] : 0;
    fu.in_pipeline = bs.pipelined;
    fu.for_assertion = op.assert_tag != ir::kNoAssertTag;
    out.fus.push_back(fu);

    out.max_chain_depth = std::max(out.max_chain_depth, fu.chain_depth);
    if (op.kind == ir::OpKind::kBin) {
      const ir::BinTraits& bt = ir::bin_traits(op.bin);
      if (bt.carry_chain) {
        // Carry chains in one state do not concatenate their ripple
        // delays (each settles in parallel off its own inputs); the
        // state's carry delay is the widest single chain.
        unsigned s = dbg.state_of(b.id, i);
        state_carry[s] = std::max(state_carry[s], fu.width);
      }
      if (bt.area == ir::BinArea::kMul) out.has_multiplier = true;
    }
  }
  for (const auto& [state, carry] : state_carry) {
    out.max_carry_width = std::max(out.max_carry_width, carry);
  }
}

std::uint64_t pipeline_stage_regs(const ir::Process& p, const ir::BasicBlock& header,
                                  const ir::BasicBlock& body, const ir::ProcessDebugInfo& dbg) {
  // Modulo variable expansion: every value produced at stage s and
  // consumed at stage s' > s needs (s' - s) pipeline copies of its width.
  std::uint64_t bits = 0;
  std::map<ir::RegId, unsigned> def_stage;
  auto state_of = [&](std::size_t i) -> unsigned {
    std::size_t h = header.ops.size();
    return i < h ? dbg.header_state_of(body.id, i) : dbg.state_of(body.id, i - h);
  };
  auto op_at = [&](std::size_t i) -> const ir::Op& {
    std::size_t h = header.ops.size();
    return i < h ? header.ops[i] : body.ops[i - h];
  };
  std::size_t total = header.ops.size() + body.ops.size();
  for (std::size_t i = 0; i < total; ++i) {
    const ir::Op& op = op_at(i);
    auto visit = [&](const ir::Operand& o) {
      if (!o.is_reg()) return;
      auto it = def_stage.find(o.reg);
      if (it == def_stage.end()) return;
      unsigned use = state_of(i);
      if (use > it->second) {
        bits += static_cast<std::uint64_t>(use - it->second) * p.reg(o.reg).width;
      }
    };
    for (const ir::Operand& a : op.args) visit(a);
    if (!op.pred.is_none()) visit(op.pred);
    if (op.dest != ir::kNoReg) def_stage[op.dest] = state_of(i);
  }
  return bits;
}

}  // namespace

const ProcessNetlist* Netlist::find_process(std::string_view name) const {
  for (const ProcessNetlist& p : processes) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

Netlist build_netlist(const ir::Design& design, const sched::DesignSchedule& schedule) {
  Netlist n;
  n.design_name = design.name;

  for (const auto& pp : design.processes) {
    const ir::Process& p = *pp;
    const sched::ProcessSchedule* ps = schedule.find(p.name);
    HLSAV_CHECK(ps != nullptr, "netlist: no schedule for " + p.name);

    ProcessNetlist out;
    out.name = p.name;
    out.role = p.role;
    out.fsm.states = std::max(1u, ps->total_states);
    for (const ir::BasicBlock& b : p.blocks) {
      out.fsm.transitions += b.term.kind == ir::TermKind::kBranch ? 2 : 1;
    }

    std::map<ir::RegId, unsigned> writers;
    const ir::ProcessDebugInfo dbg = sched::debug_info(p, *ps);
    for (const ir::BasicBlock& b : p.blocks) {
      const sched::BlockSchedule& bs = ps->of(b.id);
      add_block_ops(p, b, bs, dbg, out, writers);
      if (bs.pipelined) {
        const ir::LoopInfo* loop = p.loop_with_body(b.id);
        HLSAV_CHECK(loop != nullptr, "pipelined block without loop info");
        out.pipeline_stage_reg_bits += pipeline_stage_regs(p, p.block(loop->header), b, dbg);
      }
    }

    for (const ir::Register& r : p.regs) {
      RegInst reg;
      reg.name = r.name;
      reg.width = r.width;
      reg.fanin = std::max(1u, writers.contains(r.id) ? writers[r.id] : 0u);
      out.regs.push_back(std::move(reg));
    }
    n.processes.push_back(std::move(out));
  }

  for (const ir::Memory& m : design.memories) {
    MemInst mi;
    mi.name = m.name;
    mi.width = m.width;
    mi.size = m.size;
    mi.bits = static_cast<std::uint64_t>(m.width) * m.size;
    mi.is_rom = m.role == ir::MemRole::kRom;
    mi.is_replica = m.role == ir::MemRole::kReplica;
    n.memories.push_back(std::move(mi));
  }

  for (const ir::Stream& s : design.streams) {
    if (s.dead) continue;
    StreamInst si;
    si.name = s.name;
    si.width = s.width;
    si.depth = s.depth;
    si.role = s.role;
    si.cpu_facing = s.producer.kind == ir::StreamEndpoint::Kind::kCpu ||
                    s.consumer.kind == ir::StreamEndpoint::Kind::kCpu;
    n.streams.push_back(std::move(si));
  }
  return n;
}

std::string describe(const Netlist& n) {
  std::ostringstream os;
  os << "netlist " << n.design_name << ": " << n.processes.size() << " processes, "
     << n.memories.size() << " memories, " << n.streams.size() << " streams\n";
  for (const ProcessNetlist& p : n.processes) {
    std::uint64_t reg_bits = 0;
    for (const RegInst& r : p.regs) reg_bits += r.width;
    os << "  " << p.name << ": states=" << p.fsm.states << " fus=" << p.fus.size()
       << " reg_bits=" << reg_bits << " stage_reg_bits=" << p.pipeline_stage_reg_bits
       << " depth=" << p.max_chain_depth << " carry=" << p.max_carry_width << '\n';
  }
  return os.str();
}

}  // namespace hlsav::rtl
