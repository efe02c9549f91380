#include "ir/optimize.h"

#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace hlsav::ir {

namespace {

/// Evaluates a pure op whose inputs are all immediates; returns false if
/// the op is not foldable.
bool fold_op(const Process& proc, const Op& op, BitVector& out) {
  auto imm = [&op](std::size_t i) -> const BitVector& { return op.args[i].imm; };
  for (const Operand& a : op.args) {
    if (!a.is_imm()) return false;
  }
  if (!op.pred.is_none()) return false;  // predicated ops stay dynamic
  switch (op.kind) {
    case OpKind::kBin:
      out = eval_bin(op.bin, imm(0), imm(1));
      return true;
    case OpKind::kUn:
      out = eval_un(op.un, imm(0));
      return true;
    case OpKind::kCopy:
      out = imm(0);
      return true;
    case OpKind::kResize:
      out = imm(0).resize(proc.reg(op.dest).width, op.resize == ResizeKind::kSext);
      return true;
    case OpKind::kLoad:
    case OpKind::kStore:
    case OpKind::kStreamRead:
    case OpKind::kStreamWrite:
    case OpKind::kCallExtern:
    case OpKind::kAssert:
    case OpKind::kAssertTap:
    case OpKind::kAssertFailWire:
    case OpKind::kAssertCycles:
      return false;
  }
  HLSAV_UNREACHABLE("bad OpKind");
}

class Optimizer {
 public:
  Optimizer(Design& d, Process& p, const OptOptions& opt) : d_(d), p_(p), opt_(opt) {}

  OptReport run() {
    for (unsigned iter = 0; iter < opt_.max_iterations; ++iter) {
      unsigned before = rep_.total();
      if (opt_.constant_fold) fold_pass();
      if (opt_.copy_propagate) copy_pass();
      if (opt_.dce) dce_pass();
      if (rep_.total() == before) break;  // fixpoint
    }
    return rep_;
  }

 private:
  Design& d_;
  Process& p_;
  const OptOptions& opt_;
  OptReport rep_;

  // ---- constant folding (block-local) ----
  void fold_pass() {
    for (BasicBlock& b : p_.blocks) {
      std::unordered_map<RegId, BitVector> consts;
      auto subst = [&consts](Operand& o) {
        if (!o.is_reg()) return;
        if (auto it = consts.find(o.reg); it != consts.end()) {
          o = Operand::make_imm(it->second);
        }
      };
      for (Op& op : b.ops) {
        for (Operand& a : op.args) subst(a);
        subst(op.pred);
        BitVector value{1};
        if (op.dest != kNoReg) {
          if (fold_op(p_, op, value)) {
            // The op becomes a constant copy; record for later uses.
            if (!(op.kind == OpKind::kCopy && op.args[0].is_imm())) ++rep_.folded;
            op.kind = OpKind::kCopy;
            op.args = {Operand::make_imm(value)};
            consts[op.dest] = value;
          } else {
            consts.erase(op.dest);
          }
        }
      }
      subst(b.term.cond);
      // A branch on a constant is a jump -- except on pipelined loop
      // headers, whose branch structure the scheduler relies on.
      if (b.term.kind == TermKind::kBranch && b.term.cond.is_imm() && !is_loop_header(b.id)) {
        BlockId target = b.term.cond.imm.any() ? b.term.on_true : b.term.on_false;
        b.term = Terminator{TermKind::kJump, Operand::none(), target, kNoBlock};
        ++rep_.folded;
      }
    }
  }

  [[nodiscard]] bool is_loop_header(BlockId id) const {
    for (const LoopInfo& l : p_.loops) {
      if (l.header == id) return true;
    }
    return false;
  }

  // ---- copy propagation (block-local) ----
  void copy_pass() {
    for (BasicBlock& b : p_.blocks) {
      std::unordered_map<RegId, RegId> alias;  // dest -> source
      auto invalidate = [&alias](RegId r) {
        alias.erase(r);
        for (auto it = alias.begin(); it != alias.end();) {
          it = it->second == r ? alias.erase(it) : std::next(it);
        }
      };
      auto subst = [&alias, this](Operand& o) {
        if (!o.is_reg()) return;
        if (auto it = alias.find(o.reg); it != alias.end()) {
          o = Operand::make_reg(it->second);
          ++rep_.propagated;
        }
      };
      for (Op& op : b.ops) {
        for (Operand& a : op.args) subst(a);
        subst(op.pred);
        if (op.dest == kNoReg) continue;
        invalidate(op.dest);
        if (op.kind == OpKind::kCopy && op.args[0].is_reg() && op.args[0].reg != op.dest &&
            p_.reg(op.args[0].reg).width == p_.reg(op.dest).width) {
          alias[op.dest] = op.args[0].reg;
        }
      }
      subst(b.term.cond);
    }
  }

  // ---- dead code elimination (global use check) ----
  void dce_pass() {
    std::unordered_set<RegId> used;
    auto mark = [&used](const Operand& o) {
      if (o.is_reg()) used.insert(o.reg);
    };
    for (const BasicBlock& b : p_.blocks) {
      for (const Op& op : b.ops) {
        for (const Operand& a : op.args) mark(a);
        mark(op.pred);
      }
      mark(b.term.cond);
    }
    for (BasicBlock& b : p_.blocks) {
      std::erase_if(b.ops, [&](const Op& op) {
        if (op_traits(op.kind).side_effect) return false;
        if (op.kind == OpKind::kLoad) {
          // Loads are removable only when the value is dead: reads have
          // no architectural effect, but keep tagged condition loads --
          // their consumer may live in a checker process.
          if (op.assert_tag != kNoAssertTag) return false;
        }
        if (op.dest == kNoReg) return false;
        if (used.contains(op.dest)) return false;
        ++rep_.removed;
        return true;
      });
    }
  }
};

}  // namespace

std::string OptReport::to_string() const {
  std::ostringstream os;
  os << "folded " << folded << ", propagated " << propagated << ", removed " << removed;
  return os.str();
}

OptReport optimize_process(Design& design, Process& proc, const OptOptions& options) {
  Optimizer o(design, proc, options);
  return o.run();
}

OptReport optimize(Design& design, const OptOptions& options) {
  OptReport total;
  for (auto& p : design.processes) {
    OptReport r = optimize_process(design, *p, options);
    total.folded += r.folded;
    total.propagated += r.propagated;
    total.removed += r.removed;
  }
  return total;
}

}  // namespace hlsav::ir
