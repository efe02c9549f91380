#include "ir/lower.h"

#include <unordered_map>

namespace hlsav::ir {

using lang::BinaryOp;
using lang::Expr;
using lang::ExprKind;
using lang::Stmt;
using lang::StmtKind;
using lang::UnaryOp;

namespace {

/// Operand plus the language-level type information needed for width
/// adaptation decisions (extension uses the *source* signedness).
struct TypedOperand {
  Operand op;
  unsigned width = 0;
  bool is_signed = false;
};

constexpr unsigned kAddrWidth = 32;

class Lowerer {
 public:
  Lowerer(Design& design, const lang::Program& program, const lang::Function& fn,
          const SourceManager& sm, DiagnosticEngine& diags)
      : design_(design), program_(program), fn_(fn), sm_(sm), diags_(diags) {}

  Process* run() {
    if (!fn_.is_process()) {
      diags_.error(fn_.loc, "function '" + fn_.name + "' is not a process (must be void with "
                            "only stream parameters)");
      return nullptr;
    }
    if (design_.find_process(fn_.name) != nullptr) {
      diags_.error(fn_.loc, "process '" + fn_.name + "' already instantiated in design '" +
                                design_.name + "'");
      return nullptr;
    }
    proc_ = &design_.add_process(fn_.name);

    for (const lang::Param& p : fn_.params) {
      StreamPort port;
      port.name = p.name;
      port.is_input = p.type.stream_dir() == lang::StreamDir::kIn;
      port.width = p.type.width();
      proc_->ports.push_back(port);
      // Bind every port to a fresh CPU-facing stream; callers rewire
      // process-to-process connections afterwards via Design::connect_*.
      StreamId s = design_.add_stream(fn_.name + "." + p.name, port.width);
      proc_->find_port(p.name)->stream = s;
      if (port.is_input) {
        design_.stream(s).consumer = StreamEndpoint{StreamEndpoint::Kind::kProcess, fn_.name,
                                                    p.name};
        design_.connect_cpu_producer(s);
      } else {
        design_.stream(s).producer = StreamEndpoint{StreamEndpoint::Kind::kProcess, fn_.name,
                                                    p.name};
        design_.connect_cpu_consumer(s);
      }
    }

    cur_ = proc_->add_block("entry");
    proc_->entry = cur_;
    lower_stmts(fn_.body);
    block().term.kind = TermKind::kReturn;
    if (failed_) return nullptr;
    return proc_;
  }

 private:
  Design& design_;
  const lang::Program& program_;
  const lang::Function& fn_;
  const SourceManager& sm_;
  DiagnosticEngine& diags_;
  Process* proc_ = nullptr;
  BlockId cur_ = kNoBlock;
  bool failed_ = false;

  std::unordered_map<std::string, RegId> scalars_;
  std::unordered_map<std::string, MemId> arrays_;
  std::uint32_t cur_tag_ = kNoAssertTag;
  unsigned temp_count_ = 0;

  struct LoopCtx {
    BlockId continue_target;
    BlockId break_target;
  };
  std::vector<LoopCtx> loop_stack_;

  BasicBlock& block() { return proc_->block(cur_); }

  void error(SourceLoc loc, const std::string& msg) {
    diags_.error(loc, msg);
    failed_ = true;
  }

  RegId new_temp(unsigned width, bool is_signed) {
    return proc_->add_reg("t" + std::to_string(temp_count_++), width, is_signed);
  }

  Op& emit(Op op) {
    if (cur_tag_ != kNoAssertTag) op.assert_tag = cur_tag_;
    block().ops.push_back(std::move(op));
    return block().ops.back();
  }

  // ------------------------------------------------------- width glue --

  TypedOperand resize_to(TypedOperand v, unsigned width, bool target_signed, SourceLoc loc) {
    if (v.width == width) {
      v.is_signed = target_signed;
      return v;
    }
    if (v.op.is_imm()) {
      TypedOperand out;
      out.op = Operand::make_imm(v.op.imm.resize(width, v.is_signed));
      out.width = width;
      out.is_signed = target_signed;
      return out;
    }
    Op op;
    op.kind = OpKind::kResize;
    op.loc = loc;
    op.resize = width < v.width ? ResizeKind::kTrunc
                : v.is_signed   ? ResizeKind::kSext
                                : ResizeKind::kZext;
    op.args.push_back(v.op);
    op.dest = new_temp(width, target_signed);
    emit(op);
    TypedOperand out;
    out.op = Operand::make_reg(op.dest);
    out.width = width;
    out.is_signed = target_signed;
    return out;
  }

  /// Reduces a value to a 1-bit truth value (x != 0).
  TypedOperand to_bool(TypedOperand v, SourceLoc loc) {
    if (v.width == 1) return v;
    if (v.op.is_imm()) {
      TypedOperand out;
      out.op = Operand::make_imm(BitVector::from_bool(v.op.imm.any()));
      out.width = 1;
      return out;
    }
    Op op;
    op.kind = OpKind::kBin;
    op.loc = loc;
    op.bin = BinKind::kCmpNe;
    op.args.push_back(v.op);
    op.args.push_back(Operand::make_imm(BitVector(v.width)));
    op.dest = new_temp(1, false);
    emit(op);
    return TypedOperand{Operand::make_reg(op.dest), 1, false};
  }

  // ------------------------------------------------------ expressions --

  TypedOperand lower_expr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kIntLit:
        return TypedOperand{Operand::make_imm(e.literal), e.literal.width(), e.literal_signed};
      case ExprKind::kVarRef: {
        auto it = scalars_.find(e.name);
        if (it == scalars_.end()) {
          error(e.loc, "internal: unknown scalar '" + e.name + "'");
          return TypedOperand{Operand::make_imm(BitVector(32)), 32, true};
        }
        const Register& r = proc_->reg(it->second);
        return TypedOperand{Operand::make_reg(it->second), r.width, r.is_signed};
      }
      case ExprKind::kArrayIndex: {
        auto it = arrays_.find(e.name);
        if (it == arrays_.end()) {
          error(e.loc, "internal: unknown array '" + e.name + "'");
          return TypedOperand{Operand::make_imm(BitVector(32)), 32, true};
        }
        TypedOperand idx = resize_to(lower_expr(*e.operands[0]), kAddrWidth, false, e.loc);
        const Memory& m = design_.memory(it->second);
        Op op;
        op.kind = OpKind::kLoad;
        op.loc = e.loc;
        op.mem = it->second;
        op.args.push_back(idx.op);
        op.dest = new_temp(m.width, m.is_signed);
        emit(op);
        return TypedOperand{Operand::make_reg(op.dest), m.width, m.is_signed};
      }
      case ExprKind::kUnary: {
        if (e.unary_op == UnaryOp::kLogicalNot) {
          TypedOperand v = lower_expr(*e.operands[0]);
          Op op;
          op.kind = OpKind::kBin;
          op.loc = e.loc;
          op.bin = BinKind::kCmpEq;
          op.args.push_back(v.op);
          op.args.push_back(Operand::make_imm(BitVector(v.width)));
          op.dest = new_temp(1, false);
          emit(op);
          return TypedOperand{Operand::make_reg(op.dest), 1, false};
        }
        TypedOperand v = lower_expr(*e.operands[0]);
        Op op;
        op.kind = OpKind::kUn;
        op.loc = e.loc;
        op.un = e.unary_op == UnaryOp::kNeg ? UnKind::kNeg : UnKind::kNot;
        op.args.push_back(v.op);
        op.dest = new_temp(v.width, v.is_signed);
        emit(op);
        return TypedOperand{Operand::make_reg(op.dest), v.width, v.is_signed};
      }
      case ExprKind::kBinary:
        return lower_binary(e);
      case ExprKind::kCall:
        return lower_call(e);
      case ExprKind::kStreamRead: {
        const StreamPort* port = proc_->find_port(e.name);
        if (port == nullptr) {
          error(e.loc, "internal: unknown stream port '" + e.name + "'");
          return TypedOperand{Operand::make_imm(BitVector(32)), 32, false};
        }
        Op op;
        op.kind = OpKind::kStreamRead;
        op.loc = e.loc;
        op.stream = port->stream;
        op.dest = new_temp(port->width, false);
        emit(op);
        return TypedOperand{Operand::make_reg(op.dest), port->width, false};
      }
    }
    HLSAV_UNREACHABLE("bad expr kind");
  }

  TypedOperand lower_binary(const Expr& e) {
    const Expr& le = *e.operands[0];
    const Expr& re = *e.operands[1];

    if (e.binary_op == BinaryOp::kLogicalAnd || e.binary_op == BinaryOp::kLogicalOr) {
      // Hardware evaluation is non-short-circuit: both sides are wired in.
      TypedOperand a = to_bool(lower_expr(le), e.loc);
      TypedOperand b = to_bool(lower_expr(re), e.loc);
      Op op;
      op.kind = OpKind::kBin;
      op.loc = e.loc;
      op.bin = e.binary_op == BinaryOp::kLogicalAnd ? BinKind::kAnd : BinKind::kOr;
      op.args.push_back(a.op);
      op.args.push_back(b.op);
      op.dest = new_temp(1, false);
      emit(op);
      return TypedOperand{Operand::make_reg(op.dest), 1, false};
    }

    TypedOperand a = lower_expr(le);
    TypedOperand b = lower_expr(re);

    if (e.binary_op == BinaryOp::kShl || e.binary_op == BinaryOp::kShr) {
      Op op;
      op.kind = OpKind::kBin;
      op.loc = e.loc;
      op.bin = e.binary_op == BinaryOp::kShl ? BinKind::kShl
               : a.is_signed                 ? BinKind::kShrA
                                             : BinKind::kShrL;
      op.args.push_back(a.op);
      op.args.push_back(b.op);
      op.dest = new_temp(a.width, a.is_signed);
      emit(op);
      return TypedOperand{Operand::make_reg(op.dest), a.width, a.is_signed};
    }

    unsigned w = std::max(a.width, b.width);
    bool s = a.is_signed && b.is_signed;
    a = resize_to(a, w, s, e.loc);
    b = resize_to(b, w, s, e.loc);

    // Strength reduction: multiplies by constants with few set bits
    // become shifts and adds, as any HLS tool does (DES's index
    // arithmetic must not instantiate DSP multipliers).
    if (e.binary_op == BinaryOp::kMul && (a.op.is_imm() || b.op.is_imm())) {
      TypedOperand var = a.op.is_imm() ? b : a;
      const BitVector& c = (a.op.is_imm() ? a : b).op.imm;
      unsigned ones = 0;
      for (unsigned i = 0; i < c.width(); ++i) ones += c.bit(i) ? 1 : 0;
      if (ones <= 3) {
        TypedOperand sum;
        bool have = false;
        for (unsigned i = 0; i < c.width(); ++i) {
          if (!c.bit(i)) continue;
          TypedOperand term = var;
          if (i > 0) {
            Op sh;
            sh.kind = OpKind::kBin;
            sh.loc = e.loc;
            sh.bin = BinKind::kShl;
            sh.args.push_back(var.op);
            sh.args.push_back(Operand::make_imm(BitVector::from_u64(8, i)));
            sh.dest = new_temp(w, s);
            emit(sh);
            term = TypedOperand{Operand::make_reg(sh.dest), w, s};
          }
          if (!have) {
            sum = term;
            have = true;
            continue;
          }
          Op add;
          add.kind = OpKind::kBin;
          add.loc = e.loc;
          add.bin = BinKind::kAdd;
          add.args.push_back(sum.op);
          add.args.push_back(term.op);
          add.dest = new_temp(w, s);
          emit(add);
          sum = TypedOperand{Operand::make_reg(add.dest), w, s};
        }
        if (!have) {
          return TypedOperand{Operand::make_imm(BitVector(w)), w, s};  // * 0
        }
        return sum;
      }
    }

    BinKind kind;
    bool is_cmp = true;
    switch (e.binary_op) {
      case BinaryOp::kLt: kind = s ? BinKind::kCmpLtS : BinKind::kCmpLtU; break;
      case BinaryOp::kLe: kind = s ? BinKind::kCmpLeS : BinKind::kCmpLeU; break;
      case BinaryOp::kGt: kind = s ? BinKind::kCmpLtS : BinKind::kCmpLtU; std::swap(a, b); break;
      case BinaryOp::kGe: kind = s ? BinKind::kCmpLeS : BinKind::kCmpLeU; std::swap(a, b); break;
      case BinaryOp::kEq: kind = BinKind::kCmpEq; break;
      case BinaryOp::kNe: kind = BinKind::kCmpNe; break;
      default:
        is_cmp = false;
        switch (e.binary_op) {
          case BinaryOp::kAdd: kind = BinKind::kAdd; break;
          case BinaryOp::kSub: kind = BinKind::kSub; break;
          case BinaryOp::kMul: kind = BinKind::kMul; break;
          case BinaryOp::kDiv: kind = s ? BinKind::kDivS : BinKind::kDivU; break;
          case BinaryOp::kRem: kind = s ? BinKind::kRemS : BinKind::kRemU; break;
          case BinaryOp::kAnd: kind = BinKind::kAnd; break;
          case BinaryOp::kOr: kind = BinKind::kOr; break;
          case BinaryOp::kXor: kind = BinKind::kXor; break;
          default: HLSAV_UNREACHABLE("bad binary op");
        }
    }

    Op op;
    op.kind = OpKind::kBin;
    op.loc = e.loc;
    op.bin = kind;
    op.args.push_back(a.op);
    op.args.push_back(b.op);
    unsigned rw = is_cmp ? 1 : w;
    op.dest = new_temp(rw, is_cmp ? false : s);
    emit(op);
    return TypedOperand{Operand::make_reg(op.dest), rw, is_cmp ? false : s};
  }

  TypedOperand lower_call(const Expr& e) {
    const lang::Function* callee = program_.find_function(e.name);
    HLSAV_CHECK(callee != nullptr && callee->is_extern_hdl, "sema guaranteed extern callee");
    if (design_.find_extern(e.name) == nullptr) {
      ExternFunc f;
      f.name = e.name;
      f.result_width = callee->return_type.width();
      f.result_signed = callee->return_type.is_signed();
      for (const lang::Param& p : callee->params) f.param_widths.push_back(p.type.width());
      design_.extern_funcs.push_back(std::move(f));
    }
    Op op;
    op.kind = OpKind::kCallExtern;
    op.loc = e.loc;
    op.callee = e.name;
    for (std::size_t i = 0; i < e.operands.size(); ++i) {
      const lang::Type& pt = callee->params[i].type;
      TypedOperand arg = resize_to(lower_expr(*e.operands[i]), pt.width(), pt.is_signed(), e.loc);
      op.args.push_back(arg.op);
    }
    op.dest = new_temp(callee->return_type.width(), callee->return_type.is_signed());
    emit(op);
    return TypedOperand{Operand::make_reg(op.dest), callee->return_type.width(),
                        callee->return_type.is_signed()};
  }

  // ------------------------------------------------------- statements --

  void lower_stmts(const std::vector<lang::StmtPtr>& stmts) {
    for (const lang::StmtPtr& s : stmts) lower_stmt(*s);
  }

  void lower_stmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::kBlock: lower_stmts(s.body); break;
      case StmtKind::kDecl: lower_decl(s); break;
      case StmtKind::kAssign: lower_assign(s); break;
      case StmtKind::kIf: lower_if(s); break;
      case StmtKind::kWhile: lower_while(s); break;
      case StmtKind::kFor: lower_for(s); break;
      case StmtKind::kAssert: lower_assert(s); break;
      case StmtKind::kAssertCycles: lower_assert_cycles(s); break;
      case StmtKind::kStreamWrite: lower_stream_write(s); break;
      case StmtKind::kReturn:
        block().term.kind = TermKind::kReturn;
        cur_ = proc_->add_block("dead" + std::to_string(proc_->blocks.size()));
        break;
      case StmtKind::kBreak: {
        HLSAV_CHECK(!loop_stack_.empty(), "sema guaranteed break inside loop");
        block().term = Terminator{TermKind::kJump, Operand::none(),
                                  loop_stack_.back().break_target, kNoBlock};
        cur_ = proc_->add_block("dead" + std::to_string(proc_->blocks.size()));
        break;
      }
      case StmtKind::kContinue: {
        HLSAV_CHECK(!loop_stack_.empty(), "sema guaranteed continue inside loop");
        block().term = Terminator{TermKind::kJump, Operand::none(),
                                  loop_stack_.back().continue_target, kNoBlock};
        cur_ = proc_->add_block("dead" + std::to_string(proc_->blocks.size()));
        break;
      }
    }
  }

  void lower_decl(const Stmt& s) {
    if (s.decl_type.is_array()) {
      MemId mid = design_.add_memory(fn_.name + "." + s.decl_name, fn_.name,
                                     s.decl_type.width(), s.decl_type.is_signed(),
                                     s.decl_type.array_size());
      Memory& m = design_.memory(mid);
      m.replicate_for_assertions = s.pragmas.replicate;
      arrays_[s.decl_name] = mid;
      if (!s.decl_init.empty()) {
        bool all_const = true;
        std::vector<BitVector> init;
        init.reserve(s.decl_init.size());
        for (const lang::ExprPtr& e : s.decl_init) {
          std::optional<BitVector> v = eval_const_expr(*e);
          if (!v) {
            all_const = false;
            break;
          }
          init.push_back(v->resize(m.width, e->type.is_signed()));
        }
        if (all_const) {
          m.init = std::move(init);
          if (s.decl_is_const) m.role = MemRole::kRom;
        } else if (s.decl_is_const) {
          error(s.loc, "const array '" + s.decl_name + "' requires constant initializers");
        } else {
          // Dynamic initializers: unrolled stores at the declaration point.
          for (std::size_t i = 0; i < s.decl_init.size(); ++i) {
            TypedOperand v = resize_to(lower_expr(*s.decl_init[i]), m.width, m.is_signed, s.loc);
            Op op;
            op.kind = OpKind::kStore;
            op.loc = s.loc;
            op.mem = mid;
            op.args.push_back(Operand::make_imm(BitVector::from_u64(kAddrWidth, i)));
            op.args.push_back(v.op);
            emit(op);
          }
        }
      } else if (s.decl_is_const) {
        error(s.loc, "const array '" + s.decl_name + "' requires an initializer");
      }
      return;
    }

    RegId r = proc_->add_reg(s.decl_name, s.decl_type.width(), s.decl_type.is_signed());
    scalars_[s.decl_name] = r;
    if (!s.decl_init.empty()) {
      TypedOperand v = resize_to(lower_expr(*s.decl_init[0]), s.decl_type.width(),
                                 s.decl_type.is_signed(), s.loc);
      Op op;
      op.kind = OpKind::kCopy;
      op.loc = s.loc;
      op.args.push_back(v.op);
      op.dest = r;
      emit(op);
    }
  }

  void lower_assign(const Stmt& s) {
    if (s.lhs.is_array_elem()) {
      auto it = arrays_.find(s.lhs.name);
      HLSAV_CHECK(it != arrays_.end(), "sema guaranteed array exists");
      const Memory& m = design_.memory(it->second);
      TypedOperand idx = resize_to(lower_expr(*s.lhs.index), kAddrWidth, false, s.loc);
      TypedOperand v = resize_to(lower_expr(*s.rhs), m.width, m.is_signed, s.loc);
      Op op;
      op.kind = OpKind::kStore;
      op.loc = s.loc;
      op.mem = it->second;
      op.args.push_back(idx.op);
      op.args.push_back(v.op);
      emit(op);
      return;
    }
    auto it = scalars_.find(s.lhs.name);
    HLSAV_CHECK(it != scalars_.end(), "sema guaranteed scalar exists");
    const Register& r = proc_->reg(it->second);
    TypedOperand v = resize_to(lower_expr(*s.rhs), r.width, r.is_signed, s.loc);
    Op op;
    op.kind = OpKind::kCopy;
    op.loc = s.loc;
    op.args.push_back(v.op);
    op.dest = it->second;
    emit(op);
  }

  void lower_if(const Stmt& s) {
    TypedOperand cond = to_bool(lower_expr(*s.cond), s.loc);
    BlockId then_b = proc_->add_block("then" + std::to_string(proc_->blocks.size()));
    BlockId merge_b = kNoBlock;
    BlockId else_b = kNoBlock;
    if (!s.else_body.empty()) {
      else_b = proc_->add_block("else" + std::to_string(proc_->blocks.size()));
    }
    merge_b = proc_->add_block("merge" + std::to_string(proc_->blocks.size()));

    block().term = Terminator{TermKind::kBranch, cond.op, then_b,
                              else_b != kNoBlock ? else_b : merge_b};
    cur_ = then_b;
    lower_stmts(s.body);
    block().term = Terminator{TermKind::kJump, Operand::none(), merge_b, kNoBlock};
    if (else_b != kNoBlock) {
      cur_ = else_b;
      lower_stmts(s.else_body);
      block().term = Terminator{TermKind::kJump, Operand::none(), merge_b, kNoBlock};
    }
    cur_ = merge_b;
  }

  void lower_while(const Stmt& s) {
    BlockId header = proc_->add_block("while_header" + std::to_string(proc_->blocks.size()));
    block().term = Terminator{TermKind::kJump, Operand::none(), header, kNoBlock};
    cur_ = header;
    TypedOperand cond = to_bool(lower_expr(*s.cond), s.loc);
    BlockId body = proc_->add_block("while_body" + std::to_string(proc_->blocks.size()));
    BlockId exit = proc_->add_block("while_exit" + std::to_string(proc_->blocks.size()));
    proc_->block(header).term = Terminator{TermKind::kBranch, cond.op, body, exit};

    loop_stack_.push_back(LoopCtx{header, exit});
    cur_ = body;
    lower_stmts(s.body);
    block().term = Terminator{TermKind::kJump, Operand::none(), header, kNoBlock};
    loop_stack_.pop_back();

    if (s.pragmas.pipeline) {
      maybe_record_pipeline(s, header, body, exit);
    }
    cur_ = exit;
  }

  void lower_for(const Stmt& s) {
    if (s.for_init) lower_stmt(*s.for_init);
    BlockId header = proc_->add_block("for_header" + std::to_string(proc_->blocks.size()));
    block().term = Terminator{TermKind::kJump, Operand::none(), header, kNoBlock};
    cur_ = header;
    Operand cond_op = Operand::make_imm(BitVector::from_bool(true));
    if (s.cond) cond_op = to_bool(lower_expr(*s.cond), s.loc).op;
    BlockId body = proc_->add_block("for_body" + std::to_string(proc_->blocks.size()));
    BlockId exit = proc_->add_block("for_exit" + std::to_string(proc_->blocks.size()));
    proc_->block(header).term = Terminator{TermKind::kBranch, cond_op, body, exit};

    // The step normally lives at the end of the body block so that simple
    // loops have a single straight-line body (pipelineable). break/continue
    // require a dedicated step block to target.
    bool needs_step_block = contains_break_or_continue(s.body);
    BlockId step_block = kNoBlock;
    if (needs_step_block) {
      step_block = proc_->add_block("for_step" + std::to_string(proc_->blocks.size()));
    }

    loop_stack_.push_back(LoopCtx{needs_step_block ? step_block : header, exit});
    cur_ = body;
    lower_stmts(s.body);
    loop_stack_.pop_back();

    if (needs_step_block) {
      block().term = Terminator{TermKind::kJump, Operand::none(), step_block, kNoBlock};
      cur_ = step_block;
    }
    if (s.for_step) lower_stmt(*s.for_step);
    block().term = Terminator{TermKind::kJump, Operand::none(), header, kNoBlock};

    if (s.pragmas.pipeline) {
      maybe_record_pipeline(s, header, body, exit);
    }
    cur_ = exit;
  }

  static bool contains_break_or_continue(const std::vector<lang::StmtPtr>& body) {
    bool found = false;
    for (const lang::StmtPtr& s : body) {
      if (found) break;
      if (s->kind == StmtKind::kBreak || s->kind == StmtKind::kContinue) {
        found = true;
        break;
      }
      // Nested loops own their break/continue; only look through non-loops.
      if (s->kind == StmtKind::kIf || s->kind == StmtKind::kBlock) {
        found = contains_break_or_continue(s->body) || contains_break_or_continue(s->else_body);
      }
    }
    return found;
  }

  void maybe_record_pipeline(const Stmt& s, BlockId header, BlockId body, BlockId exit) {
    // Pipelineable only if the body stayed a single straight-line block
    // that loops directly back to the header.
    const BasicBlock& b = proc_->block(body);
    bool simple = b.term.kind == TermKind::kJump && b.term.on_true == header;
    if (!simple) {
      diags_.warning(s.loc, "loop body is not straight-line; #pragma HLS pipeline ignored");
      return;
    }
    LoopInfo info;
    info.header = header;
    info.body = body;
    info.exit = exit;
    info.pipelined = true;
    info.loc = s.loc;
    proc_->loops.push_back(info);
  }

  void lower_assert(const Stmt& s) {
    HLSAV_CHECK(cur_tag_ == kNoAssertTag, "nested assert lowering");
    cur_tag_ = s.assert_id;
    TypedOperand cond = to_bool(lower_expr(*s.cond), s.loc);
    Op op;
    op.kind = OpKind::kAssert;
    op.loc = s.loc;
    op.assert_id = s.assert_id;
    op.args.push_back(cond.op);
    emit(op);
    cur_tag_ = kNoAssertTag;

    AssertionRecord rec;
    rec.id = s.assert_id;
    rec.process = fn_.name;
    rec.function = s.assert_function;
    rec.file = std::string(sm_.name(s.loc.file));
    rec.line = s.loc.line;
    rec.condition_text = s.assert_text;
    design_.assertions.push_back(std::move(rec));
  }

  void lower_assert_cycles(const Stmt& s) {
    std::optional<BitVector> bound = eval_const_expr(*s.cond);
    if (!bound) {
      error(s.loc, "assert_cycles bound must be a constant expression");
      return;
    }
    Op op;
    op.kind = OpKind::kAssertCycles;
    op.loc = s.loc;
    op.assert_id = s.assert_id;
    op.assert_tag = s.assert_id;
    op.is_extraction = true;  // the counter check never costs app states
    op.cycle_bound = bound->to_u64();
    emit(op);

    AssertionRecord rec;
    rec.id = s.assert_id;
    rec.process = fn_.name;
    rec.function = s.assert_function;
    rec.file = std::string(sm_.name(s.loc.file));
    rec.line = s.loc.line;
    rec.condition_text = "elapsed cycles <= " + s.assert_text;
    design_.assertions.push_back(std::move(rec));
  }

  void lower_stream_write(const Stmt& s) {
    const StreamPort* port = proc_->find_port(s.stream_name);
    HLSAV_CHECK(port != nullptr, "sema guaranteed stream port");
    TypedOperand v = resize_to(lower_expr(*s.rhs), port->width, false, s.loc);
    Op op;
    op.kind = OpKind::kStreamWrite;
    op.loc = s.loc;
    op.stream = port->stream;
    op.args.push_back(v.op);
    emit(op);
  }
};

}  // namespace

std::optional<BitVector> eval_const_expr(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kIntLit:
      return e.literal;
    case ExprKind::kUnary: {
      std::optional<BitVector> v = eval_const_expr(*e.operands[0]);
      if (!v) return std::nullopt;
      switch (e.unary_op) {
        case UnaryOp::kNeg: return v->neg();
        case UnaryOp::kNot: return v->bnot();
        case UnaryOp::kLogicalNot: return BitVector::from_bool(v->is_zero());
      }
      return std::nullopt;
    }
    case ExprKind::kBinary: {
      std::optional<BitVector> a = eval_const_expr(*e.operands[0]);
      std::optional<BitVector> b = eval_const_expr(*e.operands[1]);
      if (!a || !b) return std::nullopt;
      bool as = e.operands[0]->type.is_signed();
      bool bs = e.operands[1]->type.is_signed();
      unsigned w = std::max(a->width(), b->width());
      bool s = as && bs;
      BitVector av = a->resize(w, as);
      BitVector bv = b->resize(w, bs);
      switch (e.binary_op) {
        case BinaryOp::kAdd: return av.add(bv);
        case BinaryOp::kSub: return av.sub(bv);
        case BinaryOp::kMul: return av.mul(bv);
        case BinaryOp::kDiv: return s ? av.sdiv(bv) : av.udiv(bv);
        case BinaryOp::kRem: return s ? av.srem(bv) : av.urem(bv);
        case BinaryOp::kAnd: return av.band(bv);
        case BinaryOp::kOr: return av.bor(bv);
        case BinaryOp::kXor: return av.bxor(bv);
        case BinaryOp::kShl:
          return a->shl(ir::shift_amount(*b));
        case BinaryOp::kShr: {
          unsigned amt = ir::shift_amount(*b);
          return as ? a->ashr(amt) : a->lshr(amt);
        }
        case BinaryOp::kLt: return BitVector::from_bool(s ? av.slt(bv) : av.ult(bv));
        case BinaryOp::kLe: return BitVector::from_bool(s ? av.sle(bv) : av.ule(bv));
        case BinaryOp::kGt: return BitVector::from_bool(s ? bv.slt(av) : bv.ult(av));
        case BinaryOp::kGe: return BitVector::from_bool(s ? bv.sle(av) : bv.ule(av));
        case BinaryOp::kEq: return BitVector::from_bool(av.eq(bv));
        case BinaryOp::kNe: return BitVector::from_bool(!av.eq(bv));
        case BinaryOp::kLogicalAnd: return BitVector::from_bool(a->any() && b->any());
        case BinaryOp::kLogicalOr: return BitVector::from_bool(a->any() || b->any());
      }
      return std::nullopt;
    }
    default:
      return std::nullopt;
  }
}

void register_externs(Design& design, const lang::Program& program) {
  for (const auto& fn : program.functions) {
    if (!fn->is_extern_hdl || design.find_extern(fn->name) != nullptr) continue;
    ExternFunc f;
    f.name = fn->name;
    f.result_width = fn->return_type.width();
    f.result_signed = fn->return_type.is_signed();
    for (const lang::Param& p : fn->params) f.param_widths.push_back(p.type.width());
    design.extern_funcs.push_back(std::move(f));
  }
}

Process* lower_process(Design& design, const lang::Program& program, const lang::Function& fn,
                       const SourceManager& sm, DiagnosticEngine& diags) {
  register_externs(design, program);
  Lowerer lowerer(design, program, fn, sm, diags);
  return lowerer.run();
}

Status lower_all_processes(Design& design, const lang::Program& program, const SourceManager& sm,
                           DiagnosticEngine& diags) {
  bool ok = true;
  for (const auto& fn : program.functions) {
    if (fn->is_extern_hdl || !fn->is_process()) continue;
    ok &= lower_process(design, program, *fn, sm, diags) != nullptr;
  }
  if (!ok) return Status::from_diagnostics(StatusCode::kLowerError, diags, "IR lowering");
  return Status::ok_status();
}

}  // namespace hlsav::ir
