#include <sstream>

#include "ir/ir.h"

namespace hlsav::ir {

namespace {

std::string operand_str(const Process& p, const Operand& o) {
  switch (o.kind) {
    case OperandKind::kReg: {
      const Register& r = p.reg(o.reg);
      return "%" + r.name + ":" + std::to_string(r.width);
    }
    case OperandKind::kImm:
      return o.imm.to_string_dec(false) + ":" + std::to_string(o.imm.width());
    case OperandKind::kNone:
      return "<none>";
  }
  return "?";
}

void print_op(std::ostringstream& os, const Design& d, const Process& p, const Op& op) {
  os << "    ";
  if (!op.pred.is_none()) {
    os << "if " << (op.pred_negated ? "!" : "") << operand_str(p, op.pred) << ": ";
  }
  if (op.dest != kNoReg) os << "%" << p.reg(op.dest).name << " = ";
  // kBin, kUn and kResize print their sub-kind; every other op its own name.
  const char* name = op_traits(op.kind).name;
  switch (op.kind) {
    case OpKind::kBin:
      os << bin_traits(op.bin).name << ' ' << operand_str(p, op.args[0]) << ", "
         << operand_str(p, op.args[1]);
      break;
    case OpKind::kUn:
      os << (op.un == UnKind::kNeg ? "neg " : "not ") << operand_str(p, op.args[0]);
      break;
    case OpKind::kResize: {
      const char* k = op.resize == ResizeKind::kZext   ? "zext"
                      : op.resize == ResizeKind::kSext ? "sext"
                                                       : "trunc";
      os << k << ' ' << operand_str(p, op.args[0]);
      break;
    }
    case OpKind::kCopy:
      os << name << ' ' << operand_str(p, op.args[0]);
      break;
    case OpKind::kLoad:
      os << name << ' ' << d.memory(op.mem).name << "[" << operand_str(p, op.args[0]) << "]";
      break;
    case OpKind::kStore:
      os << name << ' ' << d.memory(op.mem).name << "[" << operand_str(p, op.args[0])
         << "] = " << operand_str(p, op.args[1]);
      break;
    case OpKind::kStreamRead:
      os << name << ' ' << d.stream(op.stream).name;
      break;
    case OpKind::kStreamWrite:
      os << name << ' ' << d.stream(op.stream).name << ", " << operand_str(p, op.args[0]);
      break;
    case OpKind::kCallExtern: {
      os << name << ' ' << op.callee << "(";
      for (std::size_t i = 0; i < op.args.size(); ++i) {
        if (i != 0) os << ", ";
        os << operand_str(p, op.args[i]);
      }
      os << ")";
      break;
    }
    case OpKind::kAssert:
      os << name << " #" << op.assert_id << ' ' << operand_str(p, op.args[0]);
      break;
    case OpKind::kAssertTap: {
      os << name << " #" << op.assert_id;
      for (const Operand& a : op.args) os << ' ' << operand_str(p, a);
      break;
    }
    case OpKind::kAssertFailWire:
      os << name << " #" << op.assert_id << ' ' << operand_str(p, op.args[0]);
      break;
    case OpKind::kAssertCycles:
      os << name << " #" << op.assert_id << " bound=" << op.cycle_bound;
      break;
  }
  os << '\n';
}

}  // namespace

std::string print_process(const Design& d, const Process& proc) {
  std::ostringstream os;
  const char* role = proc.role == ProcessRole::kApplication      ? "process"
                     : proc.role == ProcessRole::kAssertChecker  ? "assert_checker"
                                                                 : "assert_collector";
  os << role << ' ' << proc.name << '(';
  for (std::size_t i = 0; i < proc.ports.size(); ++i) {
    const StreamPort& sp = proc.ports[i];
    if (i != 0) os << ", ";
    os << (sp.is_input ? "in" : "out") << '<' << sp.width << "> " << sp.name;
    if (sp.stream != kNoStream) os << " -> " << d.stream(sp.stream).name;
  }
  os << ") {\n";
  for (const BasicBlock& b : proc.blocks) {
    os << "  " << b.name << ":";
    if (const LoopInfo* loop = proc.loop_with_body(b.id); loop != nullptr && loop->pipelined) {
      os << "  ; pipelined loop body";
    }
    os << '\n';
    for (const Op& op : b.ops) print_op(os, d, proc, op);
    os << "    ";
    switch (b.term.kind) {
      case TermKind::kJump:
        os << "jump " << proc.block(b.term.on_true).name;
        break;
      case TermKind::kBranch:
        os << "branch " << operand_str(proc, b.term.cond) << ", "
           << proc.block(b.term.on_true).name << ", " << proc.block(b.term.on_false).name;
        break;
      case TermKind::kReturn:
        os << "return";
        break;
    }
    os << '\n';
  }
  os << "}\n";
  return os.str();
}

std::string print_design(const Design& d) {
  std::ostringstream os;
  os << "design " << d.name << '\n';
  for (const Stream& s : d.streams) {
    const char* role = s.role == StreamRole::kData          ? "data"
                       : s.role == StreamRole::kAssertFail  ? "assert_fail"
                       : s.role == StreamRole::kAssertPacked ? "assert_packed"
                                                             : "assert_data";
    auto ep = [](const StreamEndpoint& e) -> std::string {
      switch (e.kind) {
        case StreamEndpoint::Kind::kUnbound: return "<unbound>";
        case StreamEndpoint::Kind::kProcess: return e.process + "." + e.port;
        case StreamEndpoint::Kind::kCpu: return "cpu";
      }
      return "?";
    };
    os << "stream " << s.name << " <" << s.width << "> depth=" << s.depth << " role=" << role
       << "  " << ep(s.producer) << " -> " << ep(s.consumer) << '\n';
  }
  for (const Memory& m : d.memories) {
    const char* role = m.role == MemRole::kData ? "data" : m.role == MemRole::kRom ? "rom" : "replica";
    os << "memory " << m.name << " " << (m.is_signed ? "int" : "uint") << m.width << "["
       << m.size << "] owner=" << m.owner_process << " role=" << role;
    if (m.replicate_for_assertions) os << " replicate";
    os << '\n';
  }
  for (const auto& p : d.processes) os << print_process(d, *p);
  for (const AssertionRecord& a : d.assertions) {
    os << "assertion #" << a.id << " in " << a.process << ": " << a.failure_message() << '\n';
  }
  return os.str();
}

}  // namespace hlsav::ir
