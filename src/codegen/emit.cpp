#include "codegen/emit.h"

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/compiled.h"
#include "support/diagnostics.h"

namespace hlsav::codegen {

namespace {

using ir::BasicBlock;
using ir::BinKind;
using ir::Op;
using ir::OpKind;
using ir::Operand;
using ir::Process;
using ir::Terminator;

// ------------------------------------------------------------ helpers --

std::string u64_lit(std::uint64_t v) {
  std::ostringstream os;
  os << "UINT64_C(0x" << std::hex << v << ")";
  return os.str();
}

std::string mask_lit(unsigned width) {
  return u64_lit(width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1);
}

std::string c_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

unsigned callback_slot(OpKind k) {
  switch (k) {
    case OpKind::kStreamRead:
      return sim::kCbStreamRead;
    case OpKind::kStreamWrite:
      return sim::kCbStreamWrite;
    case OpKind::kCallExtern:
      return sim::kCbExtern;
    case OpKind::kAssert:
    case OpKind::kAssertTap:
    case OpKind::kAssertFailWire:
    case OpKind::kAssertCycles:
      return sim::kCbAssert;
    case OpKind::kBin:
    case OpKind::kUn:
    case OpKind::kResize:
    case OpKind::kCopy:
    case OpKind::kLoad:
    case OpKind::kStore:
      break;
  }
  HLSAV_UNREACHABLE("callback_slot on a pure op");
}

// The shared C prelude: two typedefs mirroring sim/compiled.h, the
// width-exact arithmetic helpers that replicate BitVector semantics on
// native uint64_t (results always masked to their declared width), and
// the fault-hook helpers.
void emit_prelude(std::ostringstream& os) {
  os << "/* hlsav compiled-simulation module (generated; do not edit). */\n"
        "#include <stdint.h>\n"
        "\n"
        "typedef uint32_t (*hlsav_cb_op_fn)(void*, uint32_t, uint32_t, uint32_t, uint64_t);\n"
        "typedef uint32_t (*hlsav_cb_poll_fn)(void*);\n"
        "typedef uint64_t (*hlsav_proc_fn)(uint64_t*, uint64_t*, uint64_t* const*, void*,\n"
        "                                  const void* const*);\n"
        "\n"
        "#define HLSAV_RET(tag) ((uint64_t)(tag) << 32)\n"
        "#define HLSAV_TRAP(w) if (((w) & "
     << sim::kBlockTrap << "u) != 0u) return HLSAV_RET(" << sim::kRetTrap
     << "u)\n"
        "\n"
        "static inline int64_t hlsav_sx(uint64_t v, uint32_t w) {\n"
        "  return (int64_t)(v << (64u - w)) >> (64u - w);\n"
        "}\n"
        "static inline uint64_t hlsav_udiv(uint64_t a, uint64_t b, uint64_t m) {\n"
        "  return b == 0u ? m : a / b; /* x/0 reads all-ones in hardware */\n"
        "}\n"
        "static inline uint64_t hlsav_urem(uint64_t a, uint64_t b) {\n"
        "  return b == 0u ? a : a % b;\n"
        "}\n"
        "static inline uint64_t hlsav_sdiv(uint64_t a, uint64_t b, uint32_t w, uint64_t m) {\n"
        "  uint64_t sa = (a >> (w - 1u)) & 1u;\n"
        "  uint64_t sb = (b >> (w - 1u)) & 1u;\n"
        "  uint64_t n, d, q;\n"
        "  if (b == 0u) return m;\n"
        "  n = sa ? (0u - a) & m : a;\n"
        "  d = sb ? (0u - b) & m : b;\n"
        "  q = n / d;\n"
        "  return sa != sb ? (0u - q) & m : q;\n"
        "}\n"
        "static inline uint64_t hlsav_srem(uint64_t a, uint64_t b, uint32_t w, uint64_t m) {\n"
        "  uint64_t sa, n, d, r;\n"
        "  if (b == 0u) return a;\n"
        "  sa = (a >> (w - 1u)) & 1u;\n"
        "  n = sa ? (0u - a) & m : a;\n"
        "  d = ((b >> (w - 1u)) & 1u) ? (0u - b) & m : b;\n"
        "  r = n % d;\n"
        "  return sa ? (0u - r) & m : r;\n"
        "}\n"
        "static inline uint64_t hlsav_shl(uint64_t a, uint64_t sh, uint32_t w, uint64_t m) {\n"
        "  return sh >= w ? 0u : (a << sh) & m;\n"
        "}\n"
        "static inline uint64_t hlsav_lshr(uint64_t a, uint64_t sh, uint32_t w) {\n"
        "  return sh >= w ? 0u : a >> sh;\n"
        "}\n"
        "static inline uint64_t hlsav_ashr(uint64_t a, uint64_t sh, uint32_t w, uint64_t m) {\n"
        "  uint64_t s = (a >> (w - 1u)) & 1u;\n"
        "  uint64_t v;\n"
        "  if (sh >= w) return s ? m : 0u;\n"
        "  v = a >> sh;\n"
        "  if (s && sh != 0u) v |= m ^ (m >> sh);\n"
        "  return v;\n"
        "}\n"
        // Fault hooks (sim/compiled.h ProcLayout). A signed compare
        // is an unsigned one with the sign bit `s` flipped; a narrowing
        // mask `m` drops that bit too, so a narrowed signed compare turns
        // unsigned, as in the interpreter's tape (sim/tape.h).
        "static inline uint64_t hlsav_lts(uint64_t a, uint64_t b, uint64_t s, uint64_t m) {\n"
        "  return ((a ^ s) & m) < ((b ^ s) & m);\n"
        "}\n"
        "static inline uint64_t hlsav_les(uint64_t a, uint64_t b, uint64_t s, uint64_t m) {\n"
        "  return ((a ^ s) & m) <= ((b ^ s) & m);\n"
        "}\n\n";
}

// --------------------------------------------------------- decline scan --

/// Returns a reason when codegen cannot faithfully represent `p`, or an
/// empty string when emission may proceed.
std::string decline_reason(const Process& p, const sched::ProcessSchedule* ps) {
  if (ps == nullptr) return "no schedule for process";
  if (ps->blocks.size() < p.blocks.size()) return "schedule does not cover every block";
  for (const ir::Register& r : p.regs) {
    if (r.width > BitVector::kMaxWidth) {
      return "register '" + r.name + "' is " + std::to_string(r.width) +
             " bits wide (compiled engine limit is " + std::to_string(BitVector::kMaxWidth) +
             ")";
    }
  }
  for (const BasicBlock& b : p.blocks) {
    // Canonical loop shape: a pipelined body is entered only through its
    // own header's loop test (that edge is internal to emit_pipelined,
    // which inlines the body under the header). Any other terminator
    // jumping straight into a body would bypass the pipeline
    // bookkeeping, so decline such (malformed) CFGs.
    for (ir::BlockId t : {b.term.on_true, b.term.on_false}) {
      if (t == ir::kNoBlock) continue;
      const ir::LoopInfo* l = p.loop_with_body(t);
      if (l != nullptr && l->pipelined && b.id != l->header) {
        return "terminator targets a pipelined loop body";
      }
    }
  }
  return {};
}

// ------------------------------------------------------- process emitter --

class ProcEmitter {
 public:
  ProcEmitter(const ir::Design& design, const Process& p, const sched::ProcessSchedule& sched)
      : design_(design),
        p_(p),
        sched_(sched),
        dbg_(sched::debug_info(p, sched)),
        layout_(sim::ProcLayout::of(p)),
        trap_sites_(sim::trap_sites(p)) {
    for (std::size_t i = 0; i < p_.loops.size(); ++i) {
      const ir::LoopInfo& l = p_.loops[i];
      if (!l.pipelined) continue;
      header_loop_[l.header] = static_cast<std::uint32_t>(i);
      pipe_body_.push_back(l.body);
    }
  }

  /// The function's parameter list and body, without its name: the
  /// body names neither the process nor its memories (sim::ProcLayout),
  /// so identical processes emit identical text.
  std::string emit() {
    os_ << "(uint64_t* r, uint64_t* st, uint64_t* const* mem, void* sim,\n"
        << "    const void* const* cb) {\n"
        << "  uint64_t ib = 0;\n"
        << "  (void)r; (void)mem; (void)ib;\n";
    emit_dispatch();
    for (const BasicBlock& b : p_.blocks) {
      if (is_pipe_body(b.id)) continue;  // emitted inline inside its header
      auto it = header_loop_.find(b.id);
      if (it != header_loop_.end()) {
        emit_pipelined(b, it->second);
      } else {
        emit_sequential(b);
      }
    }
    os_ << "}\n\n";
    return os_.str();
  }

 private:
  // ---- naming ----
  static std::string blk_f(ir::BlockId b) { return "B" + std::to_string(b) + "_f"; }
  static std::string blk_c(ir::BlockId b) { return "B" + std::to_string(b) + "_c"; }
  static std::string blk_loop(ir::BlockId b) { return "B" + std::to_string(b) + "_loop"; }
  static std::string blk_retire(ir::BlockId b) { return "B" + std::to_string(b) + "_r"; }
  static std::string op_label(ir::BlockId b, std::size_t i) {
    return "L" + std::to_string(b) + "_" + std::to_string(i);
  }
  static std::string stw(std::uint32_t word) { return "st[" + std::to_string(word) + "]"; }

  [[nodiscard]] bool is_pipe_body(ir::BlockId b) const {
    for (ir::BlockId x : pipe_body_) {
      if (x == b) return true;
    }
    return false;
  }

  // ---- operands ----
  [[nodiscard]] unsigned width_of(const Operand& o) const {
    return o.is_reg() ? p_.reg(o.reg).width : o.imm.width();
  }
  [[nodiscard]] std::string val(const Operand& o) const {
    if (o.is_reg()) return "r[" + std::to_string(o.reg) + "]";
    return u64_lit(o.imm.to_u64());
  }

  // ---- prologue shared by every block: halt, deadline, cycle limit.
  // Mirrors the interpreter's step_process loop top (same order).
  void emit_checks() {
    os_ << "  if (" << stw(sim::kStHalt) << " != 0u) return HLSAV_RET(" << sim::kRetHalted
        << "u);\n";
    os_ << "  if ((" << stw(sim::kStFlags) << " & " << sim::kStFlagDeadline
        << "u) != 0u) {\n"
        << "    if (((hlsav_cb_poll_fn)cb[" << sim::kCbPoll << "])(sim) != 0u) return HLSAV_RET("
        << sim::kRetHalted << "u);\n"
        << "  }\n";
    os_ << "  if (" << stw(sim::kStCycle) << " > " << stw(sim::kStMaxCycles)
        << ") return HLSAV_RET(" << sim::kRetCycleLimit << "u);\n";
  }

  // Resume dispatch: jump back to the callback op recorded in kStResumeOp.
  // `indices` are (resume index -> op label) pairs; `pipe` recomputes the
  // iteration base the interpreter refreshes on every re-entry.
  void emit_resume_switch(ir::BlockId blk, const std::vector<std::size_t>& indices,
                          unsigned ii, bool pipe) {
    if (indices.empty()) return;
    os_ << "  switch ((uint32_t)" << stw(sim::kStResumeOp) << ") {\n";
    for (std::size_t i : indices) {
      os_ << "    case " << i << "u: ";
      if (pipe) {
        os_ << "ib = " << stw(sim::kStPipeStart) << " + " << stw(sim::kStPipeIter) << " * " << ii
            << "u; ";
      }
      os_ << "goto " << op_label(blk, i) << ";\n";
    }
    os_ << "    default: break;\n  }\n";
  }

  /// One op. `at_expr` is the timestamp for callback ops; `resume_idx`
  /// the value stored into kStResumeOp; `progressed_before` whether any
  /// earlier op of this block invocation already executed (decides the
  /// pre-label progress mark, matching the interpreter's per-op
  /// progress accounting).
  /// `b` names the emission context (label + resume bookkeeping): for a
  /// pipelined body op that is the *header* block and `resume_idx` the
  /// combined header+body index. The callback, by contrast, must name
  /// the op's real IR coordinates -- `cb_block`/`cb_op` -- because the
  /// simulator re-fetches the Op from the design by those.
  void emit_op(const BasicBlock& b, const Op& op, std::size_t resume_idx, ir::BlockId cb_block,
               std::size_t cb_op, const std::string& at_expr, bool progressed_before) {
    os_ << "  /* op " << resume_idx << ": " << ir::op_traits(op.kind).name << " */\n";
    // Predicate: immediates fold at emission time.
    bool close_pred = false;
    if (!op.pred.is_none()) {
      if (op.pred.is_imm()) {
        bool v = op.pred.imm.any();
        bool active = op.pred_negated ? !v : v;
        if (!active) return;  // statically skipped
      } else {
        os_ << "  if (" << val(op.pred) << (op.pred_negated ? " == 0u" : " != 0u") << ") {\n";
        close_pred = true;
      }
    }
    if (ir::op_traits(op.kind).callback) {
      // The label sits after the progress mark so a resumed (re-tried)
      // op that blocks again reports no progress, exactly like the
      // interpreter re-entering its tape at the saved op index.
      if (progressed_before) os_ << "  " << stw(sim::kStProgress) << " = 1u;\n";
      os_ << op_label(b.id, resume_idx) << ": ;\n";
      os_ << "  " << stw(sim::kStResumeOp) << " = " << resume_idx << "u;\n";
      os_ << "  {\n    uint32_t s_ = ((hlsav_cb_op_fn)cb[" << callback_slot(op.kind)
          << "])(sim, (uint32_t)" << stw(sim::kStPidx) << ", " << cb_block << "u, " << cb_op
          << "u, " << at_expr
          << ");\n"
          << "    if (s_ == " << sim::kCbBlocked << "u) return HLSAV_RET(" << sim::kRetBlocked
          << "u);\n"
          << "    if (s_ == " << sim::kCbHalt << "u) " << stw(sim::kStHalt) << " = 1u;\n"
          << "  }\n";
    } else {
      emit_pure_op(op);
    }
    if (close_pred) os_ << "  }\n";
  }

  void emit_pure_op(const Op& op) {
    // kStore is the one pure op with no destination register.
    const unsigned dw = op.dest != ir::kNoReg ? p_.reg(op.dest).width : 0;
    const std::string m = mask_lit(dw);
    const std::string d = "r[" + std::to_string(op.dest) + "]";
    switch (op.kind) {
      case OpKind::kBin:
        os_ << "  " << d << " = " << bin_expr(op) << ";\n";
        break;
      case OpKind::kUn: {
        const std::string a = val(op.args[0]);
        if (op.un == ir::UnKind::kNeg) {
          os_ << "  " << d << " = (0u - " << a << ") & " << m << ";\n";
        } else {
          os_ << "  " << d << " = (~" << a << ") & " << m << ";\n";
        }
        break;
      }
      case OpKind::kCopy:
        os_ << "  " << d << " = " << val(op.args[0]) << ";\n";
        break;
      case OpKind::kResize: {
        const unsigned sw = width_of(op.args[0]);
        const std::string a = val(op.args[0]);
        if (dw <= sw) {
          os_ << "  " << d << " = " << a << " & " << m << ";\n";
        } else if (op.resize == ir::ResizeKind::kSext) {
          os_ << "  " << d << " = (uint64_t)hlsav_sx(" << a << ", " << sw << "u) & " << m
              << ";\n";
        } else {
          os_ << "  " << d << " = " << a << ";\n";
        }
        break;
      }
      case OpKind::kLoad: {
        const ir::Memory& mm = design_.memory(op.mem);
        os_ << "  {\n    uint64_t i_ = " << val(op.args[0]) << ";\n"
            << "    " << d << " = i_ < " << u64_lit(mm.size) << " ? (mem["
            << layout_.mem_slot(op.mem) << "][i_] & " << mask_lit(mm.width) << ") : 0u;\n  }\n";
        break;
      }
      case OpKind::kStore: {
        // The stored word passes the memory's BRAM fault masks.
        const ir::Memory& mm = design_.memory(op.mem);
        const std::uint32_t f = layout_.store_word(op.mem);
        os_ << "  {\n    uint64_t i_ = " << val(op.args[0]) << ";\n"
            << "    if (i_ < " << u64_lit(mm.size) << ") mem[" << layout_.mem_slot(op.mem)
            << "][i_] = (" << val(op.args[1]) << " & " << stw(f) << ") ^ " << stw(f + 1)
            << ";\n  }\n";
        break;
      }
      case OpKind::kStreamRead:
      case OpKind::kStreamWrite:
      case OpKind::kCallExtern:
      case OpKind::kAssert:
      case OpKind::kAssertTap:
      case OpKind::kAssertFailWire:
      case OpKind::kAssertCycles:
        internal_error("codegen", 0, "emit_pure_op on a callback op");
    }
  }

  [[nodiscard]] std::string bin_expr(const Op& op) const {
    const std::string a = val(op.args[0]);
    const std::string b = val(op.args[1]);
    const unsigned w = width_of(op.args[0]);
    const std::string ws = std::to_string(w) + "u";
    const std::string m = mask_lit(p_.reg(op.dest).width);
    // A comparison on a source line ANDs its operands with the line's
    // narrowing mask (all ones unless a narrow-compare fault is armed).
    // 1-bit operands have no narrower width to fall to.
    const std::uint32_t k = layout_.compare_word(op.loc.line);
    if (k != 0 && w > 1 && op.is_comparison()) {
      const std::string fm = stw(k);
      const std::string sign = u64_lit(std::uint64_t{1} << (w - 1));
      switch (op.bin) {
        case BinKind::kCmpEq:
          return "(uint64_t)(((" + a + " ^ " + b + ") & " + fm + ") == 0u)";
        case BinKind::kCmpNe:
          return "(uint64_t)(((" + a + " ^ " + b + ") & " + fm + ") != 0u)";
        case BinKind::kCmpLtU:
          return "(uint64_t)((" + a + " & " + fm + ") < (" + b + " & " + fm + "))";
        case BinKind::kCmpLeU:
          return "(uint64_t)((" + a + " & " + fm + ") <= (" + b + " & " + fm + "))";
        case BinKind::kCmpLtS:
          return "hlsav_lts(" + a + ", " + b + ", " + sign + ", " + fm + ")";
        case BinKind::kCmpLeS:
          return "hlsav_les(" + a + ", " + b + ", " + sign + ", " + fm + ")";
        default:
          break;
      }
    }
    switch (op.bin) {
      case BinKind::kAdd:
        return "(" + a + " + " + b + ") & " + m;
      case BinKind::kSub:
        return "(" + a + " - " + b + ") & " + m;
      case BinKind::kMul:
        return "(" + a + " * " + b + ") & " + m;
      case BinKind::kDivU:
        return "hlsav_udiv(" + a + ", " + b + ", " + m + ")";
      case BinKind::kDivS:
        return "hlsav_sdiv(" + a + ", " + b + ", " + ws + ", " + m + ")";
      case BinKind::kRemU:
        return "hlsav_urem(" + a + ", " + b + ")";
      case BinKind::kRemS:
        return "hlsav_srem(" + a + ", " + b + ", " + ws + ", " + m + ")";
      case BinKind::kAnd:
        return a + " & " + b;
      case BinKind::kOr:
        return a + " | " + b;
      case BinKind::kXor:
        return a + " ^ " + b;
      case BinKind::kShl:
        return "hlsav_shl(" + a + ", " + b + ", " + ws + ", " + m + ")";
      case BinKind::kShrL:
        return "hlsav_lshr(" + a + ", " + b + ", " + ws + ")";
      case BinKind::kShrA:
        return "hlsav_ashr(" + a + ", " + b + ", " + ws + ", " + m + ")";
      case BinKind::kCmpEq:
        return "(uint64_t)(" + a + " == " + b + ")";
      case BinKind::kCmpNe:
        return "(uint64_t)(" + a + " != " + b + ")";
      case BinKind::kCmpLtU:
        return "(uint64_t)(" + a + " < " + b + ")";
      case BinKind::kCmpLtS:
        return "(uint64_t)(hlsav_sx(" + a + ", " + ws + ") < hlsav_sx(" + b + ", " + ws + "))";
      case BinKind::kCmpLeU:
        return "(uint64_t)(" + a + " <= " + b + ")";
      case BinKind::kCmpLeS:
        return "(uint64_t)(hlsav_sx(" + a + ", " + ws + ") <= hlsav_sx(" + b + ", " + ws + "))";
    }
    HLSAV_UNREACHABLE("bad BinKind");
  }

  // ---- function-top resume dispatch ----
  void emit_dispatch() {
    os_ << "  switch ((uint32_t)" << stw(sim::kStResumeBlock) << ") {\n";
    for (const BasicBlock& b : p_.blocks) {
      if (is_pipe_body(b.id)) continue;
      os_ << "    case " << b.id << "u: ";
      if (header_loop_.count(b.id) != 0) {
        // A pipe header resumes into the loop when the blocked position
        // was inside it, and initializes the pipeline otherwise.
        os_ << "if (" << stw(sim::kStInPipe) << " != 0u) goto " << blk_c(b.id)
            << "; else goto " << blk_f(b.id) << ";\n";
      } else {
        os_ << "goto " << blk_c(b.id) << ";\n";
      }
    }
    os_ << "    default: return HLSAV_RET(" << sim::kRetHalted << "u); /* corrupt state */\n"
        << "  }\n";
  }

  /// Branch outcome of `b`'s condition through its block word.
  [[nodiscard]] std::string branch_taken(const BasicBlock& b) const {
    return "(" + stw(layout_.branch + b.id) + " >> (" + val(b.term.cond) + " != 0u)) & 1u";
  }

  void emit_goto_block(ir::BlockId target) { os_ << "  goto " << blk_f(target) << ";\n"; }

  // A trap site's fresh entry tests the trap bit (sim::mark_traps sets
  // it nowhere else), as the interpreter's advance_to_block does on
  // every entry; the entry block's first entry is the simulator's to
  // test. The block is already in kStResumeBlock.
  void emit_trap_test(const BasicBlock& b) {
    if (trap_sites_[b.id]) os_ << "  HLSAV_TRAP(" << stw(layout_.branch + b.id) << ");\n";
  }

  void emit_terminator(const BasicBlock& b) {
    switch (b.term.kind) {
      case ir::TermKind::kJump:
        emit_goto_block(b.term.on_true);
        break;
      case ir::TermKind::kBranch:
        os_ << "  if (" << branch_taken(b) << ") goto " << blk_f(b.term.on_true) << "; else goto "
            << blk_f(b.term.on_false) << ";\n";
        break;
      case ir::TermKind::kReturn:
        os_ << "  return HLSAV_RET(" << sim::kRetDone << "u);\n";
        break;
    }
  }

  // ---- sequential block ----
  void emit_sequential(const BasicBlock& b) {
    const sched::BlockSchedule& bs = sched_.of(b.id);
    os_ << blk_f(b.id) << ": ;\n"
        << "  " << stw(sim::kStResumeBlock) << " = " << b.id << "u;\n";
    emit_trap_test(b);
    os_ << "  " << stw(sim::kStResumeOp) << " = 0u;\n"
        << "  " << stw(sim::kStBlockEntry) << " = " << stw(sim::kStCycle) << ";\n";
    os_ << blk_c(b.id) << ": ;\n";
    emit_checks();
    // Skip-block fault: the datapath ops never run; control falls
    // through to the retire on stale register values. A skipped block
    // never runs an op, so it is never resumed mid-block: testing on
    // every pass through here is the interpreter's op_idx == 0 test.
    if (!b.ops.empty()) {
      os_ << "  if ((" << stw(layout_.branch + b.id) << " & " << sim::kBlockSkip
          << "u) != 0u) goto " << blk_retire(b.id) << ";\n";
    }
    std::vector<std::size_t> resume;
    for (std::size_t i = 0; i < b.ops.size(); ++i) {
      if (ir::op_traits(b.ops[i].kind).callback) resume.push_back(i);
    }
    emit_resume_switch(b.id, resume, 0, /*pipe=*/false);
    for (std::size_t i = 0; i < b.ops.size(); ++i) {
      unsigned state = dbg_.state_of(b.id, i);
      std::string at = stw(sim::kStBlockEntry) + " + " + std::to_string(state) + "u";
      emit_op(b, b.ops[i], i, b.id, i, at, /*progressed_before=*/i > 0);
    }
    // Retire: the block consumed its scheduled states.
    if (!b.ops.empty()) os_ << blk_retire(b.id) << ": ;\n";
    os_ << "  " << stw(sim::kStCycle) << " = " << stw(sim::kStBlockEntry) << " + "
        << bs.num_states << "u;\n"
        << "  " << stw(sim::kStProgress) << " = 1u;\n";
    emit_terminator(b);
  }

  // ---- pipelined loop (header + inlined body) ----
  // Combined resume indices match the interpreter's op_idx encoding:
  // 0..h-1 header ops, h the loop test, h+1+j body ops.
  void emit_pipelined(const BasicBlock& header, std::uint32_t loop_idx) {
    const ir::LoopInfo& loop = p_.loops[loop_idx];
    const BasicBlock& body = p_.block(loop.body);
    const sched::BlockSchedule& bs = sched_.of(loop.body);
    const std::size_t h = header.ops.size();
    const unsigned ii = bs.ii;

    os_ << blk_f(header.id) << ": ;\n"
        << "  " << stw(sim::kStResumeBlock) << " = " << header.id << "u;\n";
    emit_trap_test(header);
    os_ << "  " << stw(sim::kStResumeOp) << " = 0u;\n"
        << "  " << stw(sim::kStBlockEntry) << " = " << stw(sim::kStCycle) << ";\n"
        << "  " << stw(sim::kStInPipe) << " = 1u;\n"
        << "  " << stw(sim::kStPipeStart) << " = " << stw(sim::kStCycle) << ";\n"
        << "  " << stw(sim::kStPipeIter) << " = 0u;\n";
    os_ << blk_c(header.id) << ": ;\n";
    emit_checks();
    std::vector<std::size_t> resume;
    for (std::size_t i = 0; i < h; ++i) {
      if (ir::op_traits(header.ops[i].kind).callback) resume.push_back(i);
    }
    for (std::size_t j = 0; j < body.ops.size(); ++j) {
      if (ir::op_traits(body.ops[j].kind).callback) resume.push_back(h + 1 + j);
    }
    emit_resume_switch(header.id, resume, ii, /*pipe=*/true);

    // Per-iteration loop top. `ib` freezes the iteration base the way
    // the interpreter's local does: a read stall mid-iteration bumps
    // kStPipeStart without shifting timestamps already in flight.
    os_ << blk_loop(header.id) << ": ;\n"
        << "  if (" << stw(sim::kStPipeStart) << " + " << stw(sim::kStPipeIter) << " * " << ii
        << "u > " << stw(sim::kStMaxCycles) << ") return HLSAV_RET(" << sim::kRetCycleLimitPipe
        << "u) | " << loop_idx << "u;\n"
        << "  ib = " << stw(sim::kStPipeStart) << " + " << stw(sim::kStPipeIter) << " * " << ii
        << "u;\n";
    for (std::size_t i = 0; i < h; ++i) {
      unsigned state = dbg_.header_state_of(loop.body, i);
      std::string at = "ib + " + std::to_string(state) + "u";
      emit_op(header, header.ops[i], i, header.id, i, at, /*progressed_before=*/i > 0);
    }
    // Loop test (combined index h; never a resume point).
    os_ << "  /* loop test */\n"
        << "  if (!(" << branch_taken(header) << ")) {\n"
        << "    " << stw(sim::kStCycle) << " = " << stw(sim::kStPipeIter) << " == 0u ? "
        << stw(sim::kStPipeStart) << " + 1u : " << stw(sim::kStPipeStart) << " + " << bs.latency
        << "u + (" << stw(sim::kStPipeIter) << " - 1u) * " << ii << "u;\n"
        << "    " << stw(sim::kStInPipe) << " = 0u;\n"
        << "    " << stw(sim::kStProgress) << " = 1u;\n"
        << "    goto " << blk_f(loop.exit) << ";\n"
        << "  }\n";
    for (std::size_t j = 0; j < body.ops.size(); ++j) {
      unsigned state = dbg_.state_of(loop.body, j);
      std::string at = "ib + " + std::to_string(state) + "u";
      // The loop test already counts as executed work for this pass.
      emit_op(header, body.ops[j], h + 1 + j, loop.body, j, at, /*progressed_before=*/true);
    }
    // A halt mid-loop leaves the clock where the last issued iteration
    // retires, as the interpreter does.
    const std::string retire = stw(sim::kStCycle) + " = " + stw(sim::kStPipeStart) + " + " +
                               std::to_string(bs.latency) + "u + (" + stw(sim::kStPipeIter) +
                               " - 1u) * " + std::to_string(ii) + "u; ";
    os_ << "  " << stw(sim::kStPipeIter) << " += 1u;\n"
        << "  " << stw(sim::kStResumeOp) << " = 0u;\n"
        << "  " << stw(sim::kStProgress) << " = 1u;\n"
        << "  if (" << stw(sim::kStHalt) << " != 0u) { " << retire << "return HLSAV_RET("
        << sim::kRetHalted << "u); }\n"
        << "  if ((" << stw(sim::kStFlags) << " & " << sim::kStFlagDeadline << "u) != 0u) {\n"
        << "    if (((hlsav_cb_poll_fn)cb[" << sim::kCbPoll << "])(sim) != 0u) { " << retire
        << "return HLSAV_RET(" << sim::kRetHalted << "u); }\n"
        << "  }\n"
        << "  goto " << blk_loop(header.id) << ";\n";
  }

  const ir::Design& design_;
  const Process& p_;
  const sched::ProcessSchedule& sched_;
  ir::ProcessDebugInfo dbg_;
  sim::ProcLayout layout_;
  std::vector<bool> trap_sites_;
  std::map<ir::BlockId, std::uint32_t> header_loop_;
  std::vector<ir::BlockId> pipe_body_;
  std::ostringstream os_;
};

}  // namespace

EmitResult emit_design(const ir::Design& design, const sched::DesignSchedule& schedule) {
  EmitResult result;
  std::ostringstream os;
  emit_prelude(os);

  // Processes with identical bodies (replicated stages) share one
  // function, so the host compiler sees each distinct body once.
  std::map<std::string, std::string> symbol_of_body;
  for (const auto& up : design.processes) {
    const Process& p = *up;
    if (p.role != ir::ProcessRole::kApplication) continue;
    ProcEmit pe;
    pe.process = p.name;
    const sched::ProcessSchedule* ps = schedule.find(p.name);
    pe.decline_reason = decline_reason(p, ps);
    if (pe.decline_reason.empty()) {
      std::string body = ProcEmitter(design, p, *ps).emit();
      auto [it, fresh] = symbol_of_body.try_emplace(
          std::move(body), "hlsav_p" + std::to_string(symbol_of_body.size()));
      if (fresh) {
        os << "/* process '" << c_escape(p.name) << "' */\n"
           << "static uint64_t " << it->second << it->first;
      }
      pe.symbol = it->second;
    }
    result.procs.push_back(std::move(pe));
  }

  // Exported registry: the loader resolves these four symbols.
  os << "typedef struct { const char* name; hlsav_proc_fn fn; } hlsav_entry_t;\n";
  os << "const uint32_t hlsav_abi = " << sim::kCompiledAbiVersion << "u;\n";
  os << "const hlsav_entry_t hlsav_entries[] = {\n";
  for (const ProcEmit& pe : result.procs) {
    if (!pe.compiled()) continue;
    os << "  {\"" << c_escape(pe.process) << "\", " << pe.symbol << "},\n";
  }
  os << "  {0, 0},\n};\n";
  os << "const uint32_t hlsav_entry_count = " << result.compiled_count() << "u;\n";

  result.source = os.str();
  return result;
}

}  // namespace hlsav::codegen
