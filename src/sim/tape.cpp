#include "sim/tape.h"

#include <algorithm>
#include <atomic>
#include <string>

namespace hlsav::sim {

using ir::Op;
using ir::OpKind;

namespace {

std::uint64_t mask_of(unsigned width) {
  return width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
}

std::atomic<std::uint64_t> g_decoded{0};

}  // namespace

TapeBuilder::TapeBuilder(const ir::Design& design, const ir::Process& proc,
                         const ProcLayout* layout)
    : design_(design), proc_(proc), layout_(layout) {
  g_decoded.fetch_add(1, std::memory_order_relaxed);
  tape_.proc = &proc;
  tape_.slots.assign(proc.regs.size(), 0);
  if (tape_.slots.empty()) tape_.slots.push_back(0);
}

unsigned TapeBuilder::width_of(const ir::Operand& o) const {
  HLSAV_CHECK(!o.is_none(), "tape operand is empty in process '" + proc_.name + "'");
  if (o.is_imm()) return o.imm.width();
  HLSAV_CHECK(o.reg < proc_.regs.size(), "tape operand names a bad register");
  return proc_.regs[o.reg].width;
}

std::uint32_t TapeBuilder::slot(const ir::Operand& o) {
  // A u64 slot holds 1..kMaxWidth bits: a register widened after
  // ir::verify must not compute truncated values silently. (An immediate
  // is a BitVector, which cannot be wider.)
  const unsigned w = width_of(o);
  if (o.is_reg()) {
    HLSAV_CHECK(w >= 1 && w <= BitVector::kMaxWidth,
                "tape operand width outside 1.." + std::to_string(BitVector::kMaxWidth) +
                    " bits in process '" + proc_.name + "'");
    return o.reg;
  }
  const std::uint64_t v = o.imm.to_u64();
  auto it = std::lower_bound(imm_slots_.begin(), imm_slots_.end(), std::make_pair(v, 0u));
  if (it == imm_slots_.end() || it->first != v) {
    it = imm_slots_.insert(it, {v, static_cast<std::uint32_t>(tape_.slots.size())});
    tape_.slots.push_back(v);
  }
  return it->second;
}

void TapeBuilder::append(const Op& op, std::uint32_t state, bool checker) {
  TapeOp t;
  t.state = state;
  // Every operand gets a slot (and a width check); a and b are the first two.
  for (std::size_t i = op.args.size(); i-- > 0;) {
    const std::uint32_t s = slot(op.args[i]);
    if (i == 1) t.b = s;
    if (i == 0) t.a = s;
  }
  if (!op.args.empty()) t.w = static_cast<std::uint8_t>(width_of(op.args[0]));
  unsigned dw = 0;
  if (ir::op_traits(op.kind).has_dest) {
    HLSAV_CHECK(op.dest < proc_.regs.size(), "tape destination names a bad register");
    dw = proc_.regs[op.dest].width;
    HLSAV_CHECK(dw >= 1 && dw <= BitVector::kMaxWidth,
                "tape destination width outside 1.." + std::to_string(BitVector::kMaxWidth) +
                    " bits in process '" + proc_.name + "'");
    t.dest = op.dest;
    t.k = mask_of(dw);
  }
  if (!op.pred.is_none() && (!checker || op.kind == OpKind::kStreamWrite)) {
    t.p = slot(op.pred);
    t.pred = op.pred_negated ? TapePred::kIfClear : TapePred::kIfSet;
  }
  switch (op.kind) {
    case OpKind::kBin: {
      t.code = static_cast<TapeCode>(op.bin);
      // The line's compare word narrows both operands; 1-bit operands
      // have no narrower width to fall to (as in the emitted C).
      const std::uint32_t cw = layout_ == nullptr ? 0 : layout_->compare_word(op.loc.line);
      if (op.is_comparison() && cw != 0 && t.w > 1) {
        t.code = static_cast<TapeCode>(static_cast<std::uint8_t>(t.code) + kMaskedCompareOffset);
        t.k = cw;
      }
      break;
    }
    case OpKind::kUn:
      t.code = op.un == ir::UnKind::kNeg ? TapeCode::kNeg : TapeCode::kNot;
      break;
    case OpKind::kCopy:
      t.code = TapeCode::kCopy;
      break;
    case OpKind::kResize: {
      // BitVector::resize: a narrower destination truncates whatever the
      // kind, a wider one sign-extends only for kSext.
      if (dw < t.w) {
        t.code = TapeCode::kTrunc;
      } else if (dw > t.w && op.resize == ir::ResizeKind::kSext) {
        t.code = TapeCode::kSext;
      } else {
        t.code = TapeCode::kCopy;
      }
      break;
    }
    case OpKind::kLoad:
    case OpKind::kStore: {
      const ir::Memory& mem = design_.memory(op.mem);
      HLSAV_CHECK(mem.width <= BitVector::kMaxWidth,
                  "memory '" + mem.name + "' wider than " + std::to_string(BitVector::kMaxWidth) +
                      " bits");
      if (op.kind == OpKind::kLoad) {
        t.code = TapeCode::kLoad;
        t.b = op.mem;
      } else if (checker) {
        t.code = TapeCode::kCheckerInvalid;
      } else {
        t.code = TapeCode::kStore;
        t.dest = op.mem;
        t.k = layout_ == nullptr ? 0 : layout_->store_word(op.mem);
      }
      break;
    }
    case OpKind::kStreamWrite:
      t.code = checker ? TapeCode::kCheckerSend : TapeCode::kEffect;
      break;
    case OpKind::kAssertFailWire:
      t.code = checker ? TapeCode::kCheckerFailWire : TapeCode::kEffect;
      break;
    case OpKind::kCallExtern:
      t.code = checker ? TapeCode::kCheckerExtern : TapeCode::kEffect;
      break;
    case OpKind::kStreamRead:
    case OpKind::kAssert:
    case OpKind::kAssertTap:
    case OpKind::kAssertCycles:
      t.code = checker ? TapeCode::kCheckerInvalid : TapeCode::kEffect;
      break;
  }
  tape_.ops.push_back(t);
  tape_.src.push_back(&op);
}

Tape decode_process(const ir::Design& design, const ir::Process& proc,
                    const sched::ProcessSchedule& sched, const ProcLayout* layout) {
  TapeBuilder tb(design, proc, layout);
  std::size_t n = 0;
  for (const ir::BasicBlock& b : proc.blocks) n += b.ops.size();
  tb.tape().ops.reserve(n);
  tb.tape().src.reserve(n);
  std::vector<TapeBlock> blocks(proc.blocks.size());
  // A schedule shorter than its block issues the rest at offset 0.
  auto offset = [](const std::vector<unsigned>& states, std::size_t i) {
    return i < states.size() ? static_cast<std::uint32_t>(states[i]) : 0u;
  };
  for (const ir::BasicBlock& b : proc.blocks) {
    const sched::BlockSchedule& bs = sched.of(b.id);
    TapeBlock& tb_block = blocks[b.id];
    tb_block.begin = tb.size();
    for (std::size_t i = 0; i < b.ops.size(); ++i) tb.append(b.ops[i], offset(bs.op_state, i));
    tb_block.end = tb.size();
    tb_block.states = bs.num_states;
    if (b.term.kind == ir::TermKind::kBranch) tb_block.cond = tb.slot(b.term.cond);
  }
  for (std::uint32_t li = 0; li < proc.loops.size(); ++li) {
    // Entering a header starts the first pipelined loop it heads.
    const ir::LoopInfo& l = proc.loops[li];
    if (!l.pipelined || blocks[l.header].loop != kNoLoop) continue;
    blocks[l.header].loop = li;
    const sched::BlockSchedule& bs = sched.of(l.body);
    const ir::BasicBlock& header = proc.block(l.header);
    blocks[l.header].pbegin = tb.size();
    for (std::size_t i = 0; i < header.ops.size(); ++i) {
      tb.append(header.ops[i], offset(bs.header_op_state, i));
    }
    blocks[l.header].pend = tb.size();
  }
  Tape tape = std::move(tb.tape());
  tape.blocks = std::move(blocks);
  return tape;
}

Tape decode_checker(const ir::Design& design, const ir::Process& proc,
                    const ir::BasicBlock& block) {
  TapeBuilder tb(design, proc, nullptr);
  for (const Op& op : block.ops) tb.append(op, 0, /*checker=*/true);
  return std::move(tb.tape());
}

std::uint64_t tapes_decoded() { return g_decoded.load(std::memory_order_relaxed); }

}  // namespace hlsav::sim
