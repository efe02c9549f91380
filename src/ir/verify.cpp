// Structural verifier for the IR. Run after lowering and after every
// transformation pass; catches malformed designs early with a precise
// description instead of letting the scheduler or simulator misbehave.
#include "ir/ir.h"

namespace hlsav::ir {

namespace {

class Verifier {
 public:
  explicit Verifier(const Design& d) : d_(d) {}

  void run() {
    for (const Stream& s : d_.streams) check_stream(s);
    for (const Memory& m : d_.memories) check_memory(m);
    for (const auto& p : d_.processes) check_process(*p);
  }

 private:
  const Design& d_;
  const Process* proc_ = nullptr;

  [[noreturn]] void fail(const std::string& what) const {
    std::string ctx = proc_ != nullptr ? " (in process '" + proc_->name + "')" : "";
    internal_error("ir/verify", 0, "IR verification failed: " + what + ctx);
  }

  void check_stream(const Stream& s) const {
    if (s.dead) return;
    if (s.width < 1 || s.width > 64) fail("stream '" + s.name + "' has bad width");
    if (s.depth == 0) fail("stream '" + s.name + "' has zero depth");
    auto check_ep = [&](const StreamEndpoint& e, bool want_input) {
      if (e.kind != StreamEndpoint::Kind::kProcess) return;
      const Process* p = d_.find_process(e.process);
      if (p == nullptr) fail("stream '" + s.name + "' references unknown process " + e.process);
      const StreamPort* port = p->find_port(e.port);
      if (port == nullptr) fail("stream '" + s.name + "' references unknown port " + e.port);
      if (port->is_input != want_input) fail("stream '" + s.name + "' endpoint direction mismatch");
      if (port->stream != s.id) fail("stream '" + s.name + "' port binding mismatch");
      if (port->width != s.width) fail("stream '" + s.name + "' width mismatch at " + e.port);
    };
    check_ep(s.producer, /*want_input=*/false);
    check_ep(s.consumer, /*want_input=*/true);
  }

  void check_memory(const Memory& m) const {
    if (m.size == 0) fail("memory '" + m.name + "' has zero size");
    if (m.width < 1 || m.width > 64) fail("memory '" + m.name + "' has bad width");
    if (!m.init.empty() && m.init.size() != m.size) {
      fail("memory '" + m.name + "' init size mismatch");
    }
    if (m.role == MemRole::kReplica) {
      if (m.replica_of == kNoMem || m.replica_of >= d_.memories.size()) {
        fail("replica '" + m.name + "' has no original");
      }
      const Memory& orig = d_.memory(m.replica_of);
      if (orig.size != m.size || orig.width != m.width) {
        fail("replica '" + m.name + "' shape mismatch with original");
      }
    }
    if (m.role == MemRole::kRom && m.init.empty()) fail("ROM '" + m.name + "' has no contents");
  }

  void check_operand(const Operand& o) const {
    if (o.is_reg() && o.reg >= proc_->regs.size()) fail("operand references bad register");
  }

  void check_width_eq(const Operand& a, const Operand& b, const char* what) const {
    if (proc_->operand_width(a) != proc_->operand_width(b)) {
      fail(std::string("width mismatch in ") + what);
    }
  }

  void check_dest_width(const Op& op, unsigned expect) const {
    const char* kind = op_traits(op.kind).name;
    if (op.dest == kNoReg) fail(std::string(kind) + " without destination");
    if (proc_->reg(op.dest).width != expect) {
      fail(std::string(kind) + " destination width mismatch: reg '" +
           proc_->reg(op.dest).name + "' is " + std::to_string(proc_->reg(op.dest).width) +
           " bits, expected " + std::to_string(expect));
    }
  }

  void check_op(const Op& op) const {
    for (const Operand& a : op.args) check_operand(a);
    if (!op.pred.is_none()) check_operand(op.pred);
    switch (op.kind) {
      case OpKind::kBin: {
        if (op.args.size() != 2) fail("bin op needs 2 args");
        const BinTraits& bt = bin_traits(op.bin);
        if (!bt.is_shift) check_width_eq(op.args[0], op.args[1], bt.name);
        check_dest_width(op, bin_result_width(op.bin, proc_->operand_width(op.args[0])));
        break;
      }
      case OpKind::kUn:
        if (op.args.size() != 1) fail("un op needs 1 arg");
        check_dest_width(op, proc_->operand_width(op.args[0]));
        break;
      case OpKind::kResize: {
        if (op.args.size() != 1) fail("resize needs 1 arg");
        unsigned src = proc_->operand_width(op.args[0]);
        unsigned dst = proc_->reg(op.dest).width;
        if (op.resize == ResizeKind::kTrunc && dst > src) fail("trunc grows width");
        if (op.resize != ResizeKind::kTrunc && dst < src) fail("ext shrinks width");
        break;
      }
      case OpKind::kCopy:
        if (op.args.size() != 1) fail("copy needs 1 arg");
        check_dest_width(op, proc_->operand_width(op.args[0]));
        break;
      case OpKind::kLoad: {
        if (op.args.size() != 1) fail("load needs 1 arg (index)");
        if (op.mem >= d_.memories.size()) fail("load from bad memory");
        check_dest_width(op, d_.memory(op.mem).width);
        break;
      }
      case OpKind::kStore: {
        if (op.args.size() != 2) fail("store needs 2 args (index, value)");
        if (op.mem >= d_.memories.size()) fail("store to bad memory");
        if (proc_->operand_width(op.args[1]) != d_.memory(op.mem).width) {
          fail("store width mismatch into '" + d_.memory(op.mem).name + "'");
        }
        if (d_.memory(op.mem).role == MemRole::kRom) fail("store into ROM");
        break;
      }
      case OpKind::kStreamRead: {
        if (op.stream >= d_.streams.size()) fail("stream_read from bad stream");
        check_dest_width(op, d_.stream(op.stream).width);
        break;
      }
      case OpKind::kStreamWrite: {
        if (op.args.size() != 1) fail("stream_write needs 1 arg");
        if (op.stream >= d_.streams.size()) fail("stream_write to bad stream");
        if (proc_->operand_width(op.args[0]) != d_.stream(op.stream).width) {
          fail("stream_write width mismatch into '" + d_.stream(op.stream).name + "'");
        }
        break;
      }
      case OpKind::kCallExtern: {
        const ExternFunc* f = d_.find_extern(op.callee);
        if (f == nullptr) fail("call to unknown extern '" + op.callee + "'");
        if (op.args.size() != f->param_widths.size()) fail("extern call arity mismatch");
        for (std::size_t i = 0; i < op.args.size(); ++i) {
          if (proc_->operand_width(op.args[i]) != f->param_widths[i]) {
            fail("extern call argument width mismatch");
          }
        }
        check_dest_width(op, f->result_width);
        break;
      }
      case OpKind::kAssert: {
        if (op.args.size() != 1) fail("assert needs 1 arg");
        if (d_.find_assertion(op.assert_id) == nullptr) {
          fail("assert references unknown assertion id " + std::to_string(op.assert_id));
        }
        break;
      }
      case OpKind::kAssertTap: {
        if (d_.find_assertion(op.assert_id) == nullptr) {
          fail("assert_tap references unknown assertion id " + std::to_string(op.assert_id));
        }
        break;
      }
      case OpKind::kAssertFailWire: {
        if (op.args.size() != 1) fail("assert_fail_wire needs 1 arg");
        if (d_.find_assertion(op.assert_id) == nullptr) {
          fail("assert_fail_wire references unknown assertion id " +
               std::to_string(op.assert_id));
        }
        break;
      }
      case OpKind::kAssertCycles: {
        if (d_.find_assertion(op.assert_id) == nullptr) {
          fail("assert_cycles references unknown assertion id " +
               std::to_string(op.assert_id));
        }
        break;
      }
    }
  }

  void check_process(const Process& p) {
    proc_ = &p;
    if (p.blocks.empty()) fail("process has no blocks");
    if (p.entry >= p.blocks.size()) fail("bad entry block");
    for (const StreamPort& sp : p.ports) {
      if (sp.stream == kNoStream) fail("port '" + sp.name + "' is unbound");
      if (sp.stream >= d_.streams.size()) fail("port '" + sp.name + "' bound to bad stream");
    }
    for (const BasicBlock& b : p.blocks) {
      for (const Op& op : b.ops) check_op(op);
      switch (b.term.kind) {
        case TermKind::kJump:
          if (b.term.on_true >= p.blocks.size()) fail("jump to bad block");
          break;
        case TermKind::kBranch:
          if (b.term.on_true >= p.blocks.size() || b.term.on_false >= p.blocks.size()) {
            fail("branch to bad block");
          }
          if (b.term.cond.is_none()) fail("branch without condition");
          check_operand(b.term.cond);
          break;
        case TermKind::kReturn:
          break;
      }
    }
    for (const LoopInfo& l : p.loops) {
      if (l.header >= p.blocks.size() || l.body >= p.blocks.size() || l.exit >= p.blocks.size()) {
        fail("loop references bad block");
      }
    }
    proc_ = nullptr;
  }
};

}  // namespace

void verify(const Design& design) {
  Verifier v(design);
  v.run();
}

}  // namespace hlsav::ir
