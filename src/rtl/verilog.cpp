#include "rtl/verilog.h"

#include <functional>
#include <map>
#include <sstream>
#include <vector>

#include "rtl/names.h"

namespace hlsav::rtl {

namespace {

std::string sanitize(std::string_view name) { return sanitize_net_name(name); }

std::string operand_v(const ir::Process& p, const ir::Operand& o) {
  switch (o.kind) {
    case ir::OperandKind::kReg:
      return sanitize(p.reg(o.reg).name);
    case ir::OperandKind::kImm:
      return std::to_string(o.imm.width()) + "'d" + o.imm.to_string_dec(false);
    case ir::OperandKind::kNone:
      return "/*none*/";
  }
  return "?";
}

void emit_op(std::ostringstream& os, const ir::Design& d, const ir::Process& p,
             const ir::Op& op) {
  std::string guard;
  if (!op.pred.is_none()) {
    guard = std::string("if (") + (op.pred_negated ? "!" : "") + operand_v(p, op.pred) + ") ";
  }
  auto dest = [&]() { return sanitize(p.reg(op.dest).name); };
  os << "          " << guard;
  switch (op.kind) {
    case ir::OpKind::kBin: {
      const ir::BinTraits& bt = ir::bin_traits(op.bin);
      std::string a = operand_v(p, op.args[0]);
      std::string b = operand_v(p, op.args[1]);
      if (bt.is_signed) {
        a = "$signed(" + a + ")";
        b = "$signed(" + b + ")";
      }
      os << dest() << " <= " << a << ' ' << bt.verilog << ' ' << b << ";\n";
      break;
    }
    case ir::OpKind::kUn:
      os << dest() << " <= " << (op.un == ir::UnKind::kNeg ? "-" : "~")
         << operand_v(p, op.args[0]) << ";\n";
      break;
    case ir::OpKind::kResize:
      if (op.resize == ir::ResizeKind::kSext) {
        os << dest() << " <= $signed(" << operand_v(p, op.args[0]) << ");\n";
      } else {
        os << dest() << " <= " << operand_v(p, op.args[0]) << ";\n";
      }
      break;
    case ir::OpKind::kCopy:
      os << dest() << " <= " << operand_v(p, op.args[0]) << ";\n";
      break;
    case ir::OpKind::kLoad:
      os << dest() << " <= " << sanitize(d.memory(op.mem).name) << "_q; "
         << "/* addr <= " << operand_v(p, op.args[0]) << " */\n";
      break;
    case ir::OpKind::kStore:
      os << sanitize(d.memory(op.mem).name) << "_wr(" << operand_v(p, op.args[0]) << ", "
         << operand_v(p, op.args[1]) << ");\n";
      break;
    case ir::OpKind::kStreamRead:
      os << dest() << " <= " << sanitize(d.stream(op.stream).name)
         << "_data; // blocking pop\n";
      break;
    case ir::OpKind::kStreamWrite:
      os << sanitize(d.stream(op.stream).name) << "_push(" << operand_v(p, op.args[0])
         << ");\n";
      break;
    case ir::OpKind::kCallExtern:
      os << dest() << " <= " << sanitize(op.callee) << "_result;\n";
      break;
    case ir::OpKind::kAssert:
      os << "// assert #" << op.assert_id << " (unsynthesized)\n";
      break;
    case ir::OpKind::kAssertTap:
      os << "// assertion tap #" << op.assert_id << " -> checker (wires)\n";
      break;
    case ir::OpKind::kAssertFailWire:
      os << "// assertion fail wire #" << op.assert_id << " -> collector\n";
      break;
    case ir::OpKind::kAssertCycles:
      os << "// timing assertion #" << op.assert_id << ": elapsed <= " << op.cycle_bound
         << " cycles (counter in checker)\n";
      break;
  }
}

}  // namespace

std::string emit_process(const ir::Design& d, const ir::Process& p,
                         const sched::ProcessSchedule& sched) {
  std::ostringstream os;
  os << "module " << sanitize(p.name) << " (\n  input wire clk,\n  input wire rst";
  for (const ir::StreamPort& sp : p.ports) {
    // Data flows in on input ports; the read/write-enable handshake is
    // always driven by this process.
    os << ",\n  " << (sp.is_input ? "input" : "output") << " wire [" << sp.width - 1 << ":0] "
       << sanitize(sp.name) << "_data,\n  output wire " << sanitize(sp.name)
       << (sp.is_input ? "_ren" : "_wen");
  }
  os << "\n);\n\n";

  // Global FSM state numbering: each block occupies a contiguous range.
  std::vector<unsigned> block_state_base(p.blocks.size(), 0);
  {
    unsigned base = 0;
    for (const ir::BasicBlock& b : p.blocks) {
      const sched::BlockSchedule& bs = sched.of(b.id);
      block_state_base[b.id] = base;
      base += bs.pipelined ? bs.latency : bs.num_states;
    }
  }
  // Empty (zero-state) blocks alias the first state of their jump
  // target so transitions always land on a real state.
  std::function<unsigned(ir::BlockId)> entry_state = [&](ir::BlockId id) {
    const sched::BlockSchedule& bs = sched.of(id);
    unsigned n = bs.pipelined ? bs.latency : bs.num_states;
    if (n == 0 && p.block(id).term.kind == ir::TermKind::kJump) {
      return entry_state(p.block(id).term.on_true);
    }
    return block_state_base[id];
  };

  for (const ir::Register& r : p.regs) {
    os << "  reg " << (r.is_signed ? "signed " : "") << "[" << r.width - 1 << ":0] "
       << sanitize(r.name) << ";\n";
  }
  unsigned total_states = std::max(1u, sched.total_states);
  unsigned state_bits = 1;
  while ((1u << state_bits) < total_states) ++state_bits;
  os << "  reg [" << state_bits - 1 << ":0] state;\n\n";

  os << "  always @(posedge clk) begin\n    if (rst) begin\n      state <= 0;\n"
     << "    end else begin\n      case (state)\n";

  const ir::ProcessDebugInfo dbg = sched::debug_info(p, sched);
  unsigned state_base = 0;
  for (const ir::BasicBlock& b : p.blocks) {
    const sched::BlockSchedule& bs = sched.of(b.id);
    unsigned nstates = bs.pipelined ? bs.latency : bs.num_states;
    if (nstates == 0) continue;
    os << "        // block " << b.name << (bs.pipelined ? "  (pipelined, II=" : "")
       << (bs.pipelined ? std::to_string(bs.ii) + ")" : "") << "\n";
    for (unsigned s = 0; s < nstates; ++s) {
      os << "        " << state_base + s << ": begin\n";
      for (std::size_t i = 0; i < b.ops.size(); ++i) {
        if (dbg.state_of(b.id, i) != s) continue;
        emit_op(os, d, p, b.ops[i]);
      }
      if (s + 1 < nstates) {
        os << "          state <= " << state_base + s + 1 << ";\n";
      } else {
        switch (b.term.kind) {
          case ir::TermKind::kJump:
            os << "          state <= " << entry_state(b.term.on_true) << "; // "
               << p.block(b.term.on_true).name << "\n";
            break;
          case ir::TermKind::kBranch:
            os << "          state <= " << operand_v(p, b.term.cond) << " ? "
               << entry_state(b.term.on_true) << " : " << entry_state(b.term.on_false)
               << "; // " << p.block(b.term.on_true).name << " : "
               << p.block(b.term.on_false).name << "\n";
            break;
          case ir::TermKind::kReturn:
            os << "          state <= state; // done\n";
            break;
        }
      }
      os << "        end\n";
    }
    state_base += nstates;
  }
  os << "      endcase\n    end\n  end\n\nendmodule\n";
  return os.str();
}

std::string emit_verilog(const ir::Design& d, const sched::DesignSchedule& schedule) {
  std::ostringstream os;
  os << "// Generated by hlsav for design '" << d.name << "'\n"
     << "// Processes: " << d.processes.size() << ", streams: " << d.streams.size()
     << ", memories: " << d.memories.size() << "\n\n";

  // Memories as inferred-RAM modules.
  for (const ir::Memory& m : d.memories) {
    os << "module " << sanitize(m.name) << "_mem (\n"
       << "  input wire clk,\n  input wire [" << 31 << ":0] addr,\n"
       << "  input wire [" << m.width - 1 << ":0] wdata,\n  input wire wen,\n"
       << "  output reg [" << m.width - 1 << ":0] q\n);\n"
       << "  reg [" << m.width - 1 << ":0] mem [0:" << m.size - 1 << "];\n";
    if (!m.init.empty()) {
      os << "  initial begin\n";
      for (std::size_t i = 0; i < m.init.size(); ++i) {
        os << "    mem[" << i << "] = " << m.width << "'d" << m.init[i].to_string_dec(false)
           << ";\n";
      }
      os << "  end\n";
    }
    os << "  always @(posedge clk) begin\n"
       << "    if (wen) mem[addr] <= wdata;\n    q <= mem[addr];\n  end\nendmodule\n\n";
  }

  // Stream FIFOs.
  for (const ir::Stream& s : d.streams) {
    if (s.dead) continue;
    os << "module " << sanitize(s.name) << "_fifo (\n  input wire clk,\n  input wire rst,\n"
       << "  input wire [" << s.width - 1 << ":0] din,\n  input wire wen,\n"
       << "  output wire [" << s.width - 1 << ":0] dout,\n  input wire ren,\n"
       << "  output wire empty,\n  output wire full\n);\n"
       << "  // depth " << s.depth << ", role "
       << (s.role == ir::StreamRole::kData ? "data" : "assertion") << "\n"
       << "endmodule\n\n";
  }

  for (const auto& p : d.processes) {
    const sched::ProcessSchedule* ps = schedule.find(p->name);
    HLSAV_CHECK(ps != nullptr, "emit: missing schedule");
    os << emit_process(d, *p, *ps) << "\n";
  }

  // Top level.
  os << "module " << sanitize(d.name) << "_top (\n  input wire clk,\n  input wire rst\n);\n";
  for (const auto& p : d.processes) {
    os << "  " << sanitize(p->name) << " u_" << sanitize(p->name) << " (.clk(clk), .rst(rst));\n";
  }
  os << "endmodule\n";
  return os.str();
}

}  // namespace hlsav::rtl
