#include "sim/simulator.h"

#include <algorithm>
#include <sstream>

#include "metrics/profile.h"
#include "trace/trace.h"

namespace hlsav::sim {

using ir::BasicBlock;
using ir::Op;
using ir::OpKind;
using ir::Operand;

Simulator::Simulator(const ir::Design& design, const sched::DesignSchedule& schedule,
                     const ExternRegistry& externs, SimOptions options)
    : design_(design), schedule_(schedule), externs_(externs), opt_(options), notify_(design) {
  init_state();
}

void Simulator::init_state() {
  tracing_ = opt_.trace;
  ela_ = opt_.ela;
  prof_ = opt_.profile;
  deadline_ = opt_.deadline;
  inject_faults_ = opt_.mode == SimMode::kHardware && !opt_.faults.empty();
  if (inject_faults_) stream_write_seq_.assign(design_.streams.size(), 0);

  streams_.resize(design_.streams.size());
  stream_ids_.reserve(design_.streams.size());
  for (const ir::Stream& s : design_.streams) {
    streams_[s.id].width = s.width;
    streams_[s.id].depth = s.depth;
    streams_[s.id].cpu_producer = s.producer.kind == ir::StreamEndpoint::Kind::kCpu;
    streams_[s.id].cpu_consumer = s.consumer.kind == ir::StreamEndpoint::Kind::kCpu;
    streams_[s.id].notifies = streams_[s.id].cpu_consumer &&
                              (s.role == ir::StreamRole::kAssertFail ||
                               s.role == ir::StreamRole::kAssertPacked);
    stream_ids_.emplace(s.name, s.id);  // first name wins, as in a linear scan
  }
  // Stream and channel faults hook only the words they can touch.
  for (const FaultSpec& f : opt_.faults.faults()) {
    const bool on_stream = f.kind == FaultKind::kStreamDrop || f.kind == FaultKind::kStreamDup ||
                           f.kind == FaultKind::kStreamStuck;
    if (on_stream && f.stream < streams_.size()) streams_[f.stream].faulted = inject_faults_;
    if (f.kind == FaultKind::kChannelCorrupt) channel_faulted_ = inject_faults_;
  }
  dirty_cpu_streams_.reserve(streams_.size());

  // One coherent u64 memory image for both engines: compiled code indexes
  // the arrays directly, tapes and checker evaluations through mem64_.
  mem64_.resize(design_.memories.size());
  for (const ir::Memory& m : design_.memories) {
    auto& mem = mem64_[m.id];
    mem.assign(m.size, 0);
    for (std::size_t i = 0; i < m.init.size() && i < mem.size(); ++i) {
      mem[i] = m.init[i].to_u64();
    }
  }

  // Resolve every per-op linear lookup once: assertion-carrying ops map
  // to their records, checker processes to a preallocated register file.
  // Both indices below keep the first match, like the linear scans in
  // Design::find_assertion / find_process.
  std::unordered_map<std::uint32_t, const ir::AssertionRecord*> records_by_id;
  records_by_id.reserve(design_.assertions.size());
  for (const ir::AssertionRecord& rec : design_.assertions) {
    records_by_id.emplace(rec.id, &rec);
  }
  std::unordered_map<std::string_view, const ir::Process*> procs_by_name;
  procs_by_name.reserve(design_.processes.size());
  for (const auto& p : design_.processes) procs_by_name.emplace(p->name, p.get());
  std::unordered_map<std::string_view, const sched::ProcessSchedule*> scheds_by_name;
  scheds_by_name.reserve(schedule_.processes.size());
  for (const sched::ProcessSchedule& s : schedule_.processes) {
    scheds_by_name.emplace(s.process, &s);
  }

  checkers_.reserve(design_.assertions.size());
  for (const ir::AssertionRecord& rec : design_.assertions) {
    if (rec.checker_process.empty()) continue;
    auto pit = procs_by_name.find(rec.checker_process);
    const ir::Process* chk = pit == procs_by_name.end() ? nullptr : pit->second;
    if (chk == nullptr) continue;  // exec_effect reports this if ever tapped
    CheckerCache cc;
    const BasicBlock& block =
        chk->block(rec.checker_block != ir::kNoBlock ? rec.checker_block : chk->entry);
    cc.tape = decode_checker(design_, *chk, block);
    cc.slots = cc.tape.slots;
    cc.touched.assign(rec.checker_inputs.begin(), rec.checker_inputs.end());
    for (const Op& op : block.ops) {
      if (ir::op_traits(op.kind).has_dest) cc.touched.push_back(op.dest);
    }
    std::sort(cc.touched.begin(), cc.touched.end());
    cc.touched.erase(std::unique(cc.touched.begin(), cc.touched.end()), cc.touched.end());
    checkers_.emplace(&rec, std::move(cc));
  }
  op_assertions_.reserve(design_.assertions.size() * 2);
  for (const auto& p : design_.processes) {
    for (const BasicBlock& b : p->blocks) {
      for (const Op& op : b.ops) {
        if (!ir::op_traits(op.kind).zero_cost) continue;
        auto it = records_by_id.find(op.assert_id);
        OpAssertInfo info;
        info.rec = it == records_by_id.end() ? nullptr : it->second;
        if (info.rec != nullptr) {
          auto cit = checkers_.find(info.rec);
          if (cit != checkers_.end()) info.checker = &cit->second;
        }
        op_assertions_.emplace(&op, info);
      }
    }
  }

  procs_.reserve(design_.processes.size());
  for (const auto& p : design_.processes) {
    if (p->role != ir::ProcessRole::kApplication) continue;
    ProcState ps;
    ps.proc = p.get();
    auto sit = scheds_by_name.find(p->name);
    ps.sched = sit == scheds_by_name.end() ? nullptr : sit->second;
    HLSAV_CHECK(ps.sched != nullptr, "no schedule for process " + p->name);
    ps.cur = p->entry;
    if (prof_ != nullptr) ps.prof_idx = prof_->index_of(p.get());
    procs_.push_back(std::move(ps));
  }

  init_engine();
  // One form for the in-process faults: every process that may see one
  // gets fault words, interpreted processes under a layout of their own.
  for (ProcState& ps : procs_) {
    if (ps.layout == nullptr && inject_faults_) {
      ps.own_layout = std::make_unique<ProcLayout>(ProcLayout::of(*ps.proc));
      ps.layout = ps.own_layout.get();
      ps.st.assign(ps.layout->words, 0);
    }
    if (ps.cfn == nullptr) {
      ps.tape = decode_process(design_, *ps.proc, *ps.sched, ps.layout);
      ps.regs64 = ps.tape.slots;
    }
    if (ps.layout == nullptr) continue;
    arm_fault_words(ps);
    // advance_to_block tests the trap bit on every later entry.
    if ((block_word(ps, ps.cur) & kBlockTrap) != 0) trap(ps, ps.cur);
  }
}

void Simulator::init_engine() {
  if (opt_.engine == SimEngine::kInterpreter) return;
  // Fallback contract: a compiled request downgrades to interpretation
  // (never an error) whenever the configuration needs interpreter-only
  // machinery; the reason is reported through engine_note().
  if (opt_.compiled == nullptr || opt_.compiled->procs.empty()) {
    engine_note_ = "no compiled design attached";
    return;
  }
  if (opt_.trace) {
    engine_note_ = "trace capture armed; compiled engine declines, interpreting";
    return;
  }
  if (opt_.ela != nullptr) {
    engine_note_ = "ELA capture armed; compiled engine declines, interpreting";
    return;
  }
  if (opt_.profile != nullptr) {
    engine_note_ = "profiler armed; compiled engine declines, interpreting";
    return;
  }
  std::size_t attached = 0;
  for (std::size_t pidx = 0; pidx < procs_.size(); ++pidx) {
    ProcState& ps = procs_[pidx];
    const CompiledProc* match = nullptr;
    for (const CompiledProc& cp : opt_.compiled->procs) {
      if (cp.process == ps.proc->name && cp.fn != nullptr) {
        match = &cp;
        break;
      }
    }
    if (match == nullptr) continue;
    ps.cfn = match->fn;
    ps.layout = &match->layout;
    ps.regs64.assign(ps.proc->regs.size(), 0);
    ps.st.assign(ps.layout->words, 0);
    ps.st[kStMaxCycles] = opt_.max_cycles;
    ps.st[kStResumeBlock] = ps.proc->entry;
    ps.st[kStPidx] = pidx;
    if (deadline_ != nullptr) ps.st[kStFlags] |= kStFlagDeadline;
    ++attached;
  }
  if (attached == 0) {
    engine_note_ = "compiled design covers no process of this design; interpreting";
    return;
  }
  engine_active_ = true;
  for (ProcState& ps : procs_) {
    if (ps.cfn == nullptr) continue;
    for (std::uint32_t m : ps.layout->mems) ps.mems64.push_back(mem64_[m].data());
  }
  cb_table_[kCbStreamRead] = reinterpret_cast<const void*>(&Simulator::cb_exec_trampoline);
  cb_table_[kCbStreamWrite] = reinterpret_cast<const void*>(&Simulator::cb_exec_trampoline);
  cb_table_[kCbExtern] = reinterpret_cast<const void*>(&Simulator::cb_exec_trampoline);
  cb_table_[kCbAssert] = reinterpret_cast<const void*>(&Simulator::cb_exec_trampoline);
  cb_table_[kCbPoll] = reinterpret_cast<const void*>(&Simulator::cb_poll_trampoline);
}

void Simulator::arm_fault_words(ProcState& ps) const {
  const ProcLayout& layout = *ps.layout;
  std::uint64_t* st = ps.st.data();
  std::fill(st + layout.branch, st + layout.store, kBranchFree);
  for (std::uint32_t w = layout.store; w < layout.compare; w += 2) {
    st[w] = ~std::uint64_t{0};  // AND; XOR stays 0
  }
  std::fill(st + layout.compare, st + layout.words, ~std::uint64_t{0});
  if (!inject_faults_) return;

  // Faults compose in the order they were armed: narrowing masks AND,
  // BRAM pairs chain as (v & A) ^ X, skip flags OR, and the first stuck
  // branch on a block wins. Stream and extern faults apply when the op
  // executes, channel faults when draining CPU streams.
  const std::string& name = ps.proc->name;
  for (const FaultSpec& f : opt_.faults.faults()) {
    switch (f.kind) {
      case FaultKind::kNarrowCompare: {
        // Width 0 is no fault; 64 and up cannot narrow a 64-bit mask.
        if ((!f.process.empty() && f.process != name) || f.width == 0 || f.width >= 64) break;
        const std::uint64_t mask = (std::uint64_t{1} << f.width) - 1;
        for (std::uint32_t k = layout.compare; k < layout.words; ++k) {
          if (f.line == 0 || layout.lines[k - layout.compare] == f.line) st[k] &= mask;
        }
        break;
      }
      case FaultKind::kBramBitFlip:
      case FaultKind::kBramStuckAt: {
        // A bit at or beyond the memory width is left unchanged.
        const std::uint32_t k = layout.store_word(f.mem);
        if (k == 0 || f.bit >= design_.memory(f.mem).width) break;
        const std::uint64_t bit = std::uint64_t{1} << f.bit;
        const std::uint64_t and_mask = f.kind == FaultKind::kBramStuckAt ? ~bit : ~std::uint64_t{0};
        const std::uint64_t xor_mask = f.kind == FaultKind::kBramBitFlip || f.stuck_one ? bit : 0;
        st[k] &= and_mask;
        st[k + 1] = (st[k + 1] & and_mask) ^ xor_mask;
        break;
      }
      case FaultKind::kFsmStuckBranch:
        if (f.process == name && f.block < ps.proc->blocks.size()) {
          std::uint64_t& w = st[layout.branch + f.block];
          if ((w & kBranchMask) == kBranchFree) {
            w = (w & ~kBranchMask) | (f.branch_taken ? kBranchTaken : kBranchNotTaken);
          }
        }
        break;
      case FaultKind::kFsmSkipBlock:
        if (f.process == name && f.block < ps.proc->blocks.size()) {
          st[layout.branch + f.block] |= kBlockSkip;
        }
        break;
      default:
        break;
    }
  }
  mark_traps(*ps.proc, st + layout.branch);
}

void Simulator::trap(ProcState& ps, ir::BlockId b) {
  ps.cur = b;
  ps.blocked = true;
  ps.block_reason = BlockReason::kTrap;
  // The block's line: its first op that has one.
  ps.blocked_at = {};
  for (const Op& op : ps.proc->block(b).ops) {
    if (op.loc.valid()) {
      ps.blocked_at = op.loc;
      break;
    }
  }
}

ir::StreamId Simulator::stream_by_name(std::string_view name) const {
  auto it = stream_ids_.find(name);
  if (it == stream_ids_.end()) {
    internal_error("sim", 0, "unknown stream '" + std::string(name) + "'");
  }
  return it->second;
}

const ir::AssertionRecord* Simulator::assertion_of(const Op& op) const {
  auto it = op_assertions_.find(&op);
  return it == op_assertions_.end() ? design_.find_assertion(op.assert_id) : it->second.rec;
}

void Simulator::feed(std::string_view stream_name, const std::vector<std::uint64_t>& values) {
  feed(stream_by_name(stream_name), values);
}

void Simulator::feed(ir::StreamId stream, const std::vector<std::uint64_t>& values) {
  const ir::Stream& s = design_.stream(stream);
  HLSAV_CHECK(streams_[stream].cpu_producer, "feed into a non-CPU-fed stream");
  for (std::uint64_t v : values) {
    // Silent truncation here would make a bad harness input look exactly
    // like an injected hardware fault; reject it loudly instead.
    HLSAV_CHECK(s.width >= 64 || (v >> s.width) == 0,
                "feed value " + std::to_string(v) + " does not fit stream '" + s.name + "' (" +
                    std::to_string(s.width) + " bits)");
    streams_[stream].fifo.push_back(FifoEntry{v, 0});
  }
  mark_cpu_dirty(stream);  // a CPU->CPU stream delivers on the next drain
}

Status Simulator::try_feed(std::string_view stream_name,
                           const std::vector<std::uint64_t>& values) {
  auto it = stream_ids_.find(stream_name);
  if (it == stream_ids_.end()) {
    return Status::invalid_argument("unknown stream '" + std::string(stream_name) + "'");
  }
  const ir::Stream& s = design_.stream(it->second);
  if (!streams_[it->second].cpu_producer) {
    return Status::invalid_argument("stream '" + s.name + "' is not CPU-fed");
  }
  for (std::uint64_t v : values) {
    if (s.width < 64 && (v >> s.width) != 0) {
      return Status::invalid_argument("feed value " + std::to_string(v) +
                                      " does not fit stream '" + s.name + "' (" +
                                      std::to_string(s.width) + " bits)");
    }
  }
  feed(it->second, values);
  return Status::ok_status();
}

std::vector<std::uint64_t> Simulator::received(std::string_view stream_name) const {
  return streams_[stream_by_name(stream_name)].cpu_received;
}

// ------------------------------------------------------------ streams --

bool Simulator::try_stream_read(ProcState& ps, const Op& op, std::uint64_t at) {
  StreamState& st = streams_[op.stream];
  if (st.fifo.empty()) {
    ps.blocked = true;
    ps.blocked_at = op.loc;
    ps.block_reason = BlockReason::kStreamEmpty;
    ps.blocked_stream = op.stream;
    if (prof_ != nullptr) prof_->blocked_poll(ps.prof_idx, op.stream, /*write=*/false);
    return false;
  }
  const FifoEntry e = st.fifo.front();
  st.fifo.pop_front();
  ps.regs64[op.dest] = e.value;
  if (ela_ != nullptr) {
    ela_->stream_pop(ps.proc, op.stream, stream_bits(op.stream, e.value), at, op.loc);
  }
  if (e.time <= at) return true;
  // The producer delivered later than this process's clock: stall the
  // block (and a pipelined loop's start cycle).
  const std::uint64_t stall = e.time - at;
  if (ps.cfn != nullptr) {
    ps.st[kStBlockEntry] += stall;
    ps.st[kStPipeStart] += stall;
    return true;
  }
  if (prof_ != nullptr) {
    // Charge the stall to the FSM state issuing the read (its offset
    // from the block/iteration entry, pre-bump).
    ir::BlockId pb = ps.pipe ? ps.pipe->loop->body : ps.cur;
    std::uint64_t base = ps.pipe ? ps.pipe->start_cycle + ps.pipe->iter * ps.pipe->bs->ii
                                 : ps.block_entry_cycle;
    prof_->read_stall(ps.prof_idx, pb, static_cast<unsigned>(at - base), op.stream, at,
                      stall);
  }
  ps.block_entry_cycle += stall;
  if (ps.pipe) ps.pipe->start_cycle += stall;
  return true;
}

bool Simulator::try_stream_write(ProcState& ps, const Op& op, std::uint64_t at) {
  StreamState& st = streams_[op.stream];
  if (!st.cpu_consumer && st.fifo.size() >= st.depth) {
    ps.blocked = true;
    ps.blocked_at = op.loc;
    ps.block_reason = BlockReason::kStreamFull;
    ps.blocked_stream = op.stream;
    if (prof_ != nullptr) prof_->blocked_poll(ps.prof_idx, op.stream, /*write=*/true);
    return false;
  }
  std::uint64_t v = word(ps.regs64.data(), op.args[0]);
  FaultEngine::StreamAction act = FaultEngine::StreamAction::kPass;
  if (st.faulted) {
    // Handshake faults: the word is counted as sent by the process even
    // when the FIFO drops it (that is the fault being modelled).
    BitVector bv = stream_bits(op.stream, v);
    act = opt_.faults.on_stream_write(op.stream, stream_write_seq_[op.stream]++, bv);
    v = bv.to_u64();
  }
  // The process-side handshake happens even for a dropped word; the
  // trace records the (possibly corrupted) value the FIFO saw.
  if (ela_ != nullptr) ela_->stream_push(ps.proc, op.stream, stream_bits(op.stream, v), at, op.loc);
  if (act == FaultEngine::StreamAction::kDrop) return true;
  // Data crosses the channel one cycle after the send issues.
  if (act == FaultEngine::StreamAction::kDup) st.fifo.push_back(FifoEntry{v, at + 1});
  st.fifo.push_back(FifoEntry{v, at + 1});
  mark_cpu_dirty(op.stream);
  return true;
}

void Simulator::push_stream(ir::StreamId id, std::uint64_t value, std::uint64_t at) {
  streams_[id].fifo.push_back(FifoEntry{stream_bits(id, value).to_u64(), at});
  mark_cpu_dirty(id);
}

void Simulator::mark_cpu_dirty(ir::StreamId id) {
  StreamState& st = streams_[id];
  if (!st.cpu_consumer) return;
  if (!st.dirty) {
    st.dirty = true;
    dirty_cpu_streams_.push_back(id);
  }
  // The notification task sees a failure when it is sent (paper §3: the
  // application aborts on the first one). The halt_ this may raise stops
  // an interpreted process at its next block boundary and compiled code
  // through kCbHalt -> kStHalt, the same points a direct assert halts at.
  if (st.notifies) drain_cpu_streams();
}

// --------------------------------------------------------- assertions --

void Simulator::direct_assert_failure(std::uint32_t id, std::uint64_t at) {
  if (notify_.on_direct(id, at)) halt_ = true;
}

void Simulator::fail_wire(const ir::AssertionRecord* rec, std::uint64_t at) {
  HLSAV_CHECK(rec != nullptr && rec->fail_stream != ir::kNoStream,
              "fail wire without a collector stream");
  push_stream(rec->fail_stream, std::uint64_t{1} << rec->fail_bit, at);
}

void Simulator::eval_checker(const ir::AssertionRecord& rec, CheckerCache& cc,
                             ProcState& ps, const Op& tap, std::uint64_t at) {
  // Fresh slot file per evaluation: it only ever diverges from the zero
  // registers at the touched ones, so zero just those, then wire in the
  // tapped values straight from the application's registers.
  std::uint64_t* s = cc.slots.data();
  for (ir::RegId r : cc.touched) s[r] = 0;
  HLSAV_CHECK(tap.args.size() == rec.checker_inputs.size(), "tap arity mismatch");
  for (std::size_t i = 0; i < tap.args.size(); ++i) {
    s[rec.checker_inputs[i]] = word(ps.regs64.data(), tap.args[i]);
  }
  // Grouped checkers evaluate only this assertion's sub-block. Its ops
  // all read the tap's time; a failure is sent a cycle later.
  checker_failed_ = false;
  const auto n = static_cast<std::uint32_t>(cc.tape.ops.size());
  run_tape(ps, s, cc.tape, 0, n, at, /*hooks=*/false);
  const bool failed = checker_failed_;
  // The checker's verdict, attributed to the checker process (it owns
  // the failure wire) at the tap's source position.
  if (ela_ != nullptr) ela_->assert_verdict(cc.tape.proc, rec.id, failed, at, tap.loc);
  if (prof_ != nullptr) prof_->assert_eval(ps.prof_idx, rec.id, failed, at);
}

// ------------------------------------------------------------ op exec --

void Simulator::record_trace(const ProcState& ps, const Op& op, std::uint64_t at) {
  if (trace_.size() >= opt_.trace_limit) {
    tracing_ = false;
    return;
  }
  trace_.push_back(TraceEvent{at, ps.proc->name, op.kind, op.loc});
}

std::uint32_t Simulator::run_tape(ProcState& ps, std::uint64_t* s, const Tape& t,
                                  std::uint32_t i, std::uint32_t end, const std::uint64_t& base,
                                  bool hooks) {
  const std::uint64_t* st = ps.st.data();
  const TapeOp* ops = t.ops.data();
  for (; i < end; ++i) {
    const TapeOp& o = ops[i];
    if (o.pred != TapePred::kAlways && (s[o.p] != 0) != (o.pred == TapePred::kIfSet)) continue;
    if (hooks && tracing_) [[unlikely]] record_trace(ps, *t.src[i], base + o.state);
    if (o.code < TapeCode::kLoad) [[likely]] {
      s[o.dest] = eval_pure(o, s, st);
      if (hooks && ela_ != nullptr) [[unlikely]] {
        const Op& op = *t.src[i];
        ela_->reg_write(ps.proc, op.dest, bits(*ps.proc, s, Operand::make_reg(op.dest)),
                        base + o.state, op.loc);
      }
      continue;
    }
    switch (o.code) {
      case TapeCode::kLoad: {
        // Out-of-range addresses read X in hardware; model as zero.
        const std::vector<std::uint64_t>& mem = mem64_[o.b];
        const std::uint64_t idx = s[o.a];
        s[o.dest] = idx < mem.size() ? mem[idx] & o.k : 0;
        if (hooks && ela_ != nullptr) [[unlikely]] {
          const Op& op = *t.src[i];
          BitVector v = BitVector::from_u64(design_.memory(op.mem).width, s[o.dest]);
          ela_->bram_read(ps.proc, op.mem, idx, v, base + o.state, op.loc);
          ela_->reg_write(ps.proc, op.dest, v, base + o.state, op.loc);
        }
        break;
      }
      case TapeCode::kStore: {
        // The stored word passes the memory's BRAM fault masks, as in
        // compiled code.
        std::vector<std::uint64_t>& mem = mem64_[o.dest];
        const std::uint64_t idx = s[o.a];
        std::uint64_t v = s[o.b];
        if (o.k != 0) v = (v & st[o.k]) ^ st[o.k + 1];
        if (idx >= mem.size()) break;
        mem[idx] = v;
        // The trace holds what the port actually wrote, faults included.
        if (hooks && ela_ != nullptr) [[unlikely]] {
          const Op& op = *t.src[i];
          ela_->bram_write(ps.proc, op.mem, idx,
                           BitVector::from_u64(design_.memory(op.mem).width, v),
                           base + o.state, op.loc);
        }
        break;
      }
      case TapeCode::kEffect:
        if (!exec_effect(ps, *t.src[i], base + o.state)) return i;
        break;
      default:
        exec_checker_op(s, t, i, base);
        break;
    }
  }
  return end;
}

void Simulator::exec_checker_op(std::uint64_t* s, const Tape& t, std::uint32_t i,
                                std::uint64_t at) {
  const TapeOp& o = t.ops[i];
  const Op& op = *t.src[i];
  switch (o.code) {
    case TapeCode::kCheckerSend:
      // The checker's failure send: predicated on the (negated)
      // condition. The +1 models the checker's notification latency,
      // which never stalls the application (paper §3.3).
      push_stream(op.stream, s[o.a], at + 1);
      checker_failed_ = true;
      return;
    case TapeCode::kCheckerFailWire:
      if (s[o.a] == 0) {
        fail_wire(assertion_of(op), at + 1);
        checker_failed_ = true;
      }
      return;
    case TapeCode::kCheckerExtern: {
      const ExternRegistry::Fn* fn = extern_fn(op.callee);
      HLSAV_CHECK(fn != nullptr, "unbound extern function '" + op.callee + "'");
      extern_args_.clear();
      for (const Operand& a : op.args) extern_args_.push_back(bits(*t.proc, s, a));
      s[o.dest] = (*fn)(extern_args_).resize(t.proc->reg(op.dest).width, false).to_u64();
      return;
    }
    case TapeCode::kCheckerInvalid:
      internal_error("sim", 0, "unexpected op in checker process");
    default:
      break;
  }
  HLSAV_UNREACHABLE("application op on the checker path");
}

bool Simulator::exec_effect(ProcState& ps, const Op& op, std::uint64_t at) {
  switch (op.kind) {
    case OpKind::kStreamRead:
      return try_stream_read(ps, op, at);
    case OpKind::kStreamWrite:
      return try_stream_write(ps, op, at);
    case OpKind::kCallExtern: {
      const ExternRegistry::Fn* fn = extern_fn(op.callee);
      HLSAV_CHECK(fn != nullptr, "unbound extern function '" + op.callee + "'");
      extern_args_.clear();
      for (const Operand& a : op.args) extern_args_.push_back(bits(*ps.proc, ps.regs64.data(), a));
      BitVector r = (*fn)(extern_args_).resize(ps.proc->reg(op.dest).width, false);
      if (inject_faults_) opt_.faults.on_extern_result(op.callee, r);
      ps.regs64[op.dest] = r.to_u64();
      if (ela_ != nullptr) ela_->reg_write(ps.proc, op.dest, r, at, op.loc);
      return true;
    }
    case OpKind::kAssert: {
      // Direct evaluation: software simulation / pre-synthesis designs.
      bool failed = word(ps.regs64.data(), op.args[0]) == 0;
      if (ela_ != nullptr) ela_->assert_verdict(ps.proc, op.assert_id, failed, at, op.loc);
      if (prof_ != nullptr) prof_->assert_eval(ps.prof_idx, op.assert_id, failed, at);
      if (failed) direct_assert_failure(op.assert_id, at);
      return true;
    }
    case OpKind::kAssertTap: {
      auto it = op_assertions_.find(&op);
      const ir::AssertionRecord* rec =
          it != op_assertions_.end() ? it->second.rec : design_.find_assertion(op.assert_id);
      HLSAV_CHECK(rec != nullptr, "tap without assertion record");
      CheckerCache* cc = it != op_assertions_.end() ? it->second.checker : nullptr;
      HLSAV_CHECK(cc != nullptr, "missing checker process " + rec->checker_process);
      eval_checker(*rec, *cc, ps, op, at);
      return true;
    }
    case OpKind::kAssertFailWire: {
      bool failed = word(ps.regs64.data(), op.args[0]) == 0;
      if (ela_ != nullptr) ela_->assert_verdict(ps.proc, op.assert_id, failed, at, op.loc);
      if (prof_ != nullptr) prof_->assert_eval(ps.prof_idx, op.assert_id, failed, at);
      if (failed) fail_wire(assertion_of(op), at + 1);
      return true;
    }
    case OpKind::kAssertCycles: {
      // Timing assertion: cycles elapsed since the previous marker in
      // this process (or process start) must not exceed the budget.
      std::uint64_t elapsed = at >= ps.cycle_marker ? at - ps.cycle_marker : 0;
      ps.cycle_marker = at;
      if (ela_ != nullptr) {
        ela_->assert_verdict(ps.proc, op.assert_id, elapsed > op.cycle_bound, at, op.loc);
      }
      if (prof_ != nullptr) {
        prof_->assert_eval(ps.prof_idx, op.assert_id, elapsed > op.cycle_bound, at);
      }
      if (elapsed > op.cycle_bound) {
        const ir::AssertionRecord* rec = assertion_of(op);
        if (rec != nullptr && rec->fail_stream != ir::kNoStream &&
            design_.stream(rec->fail_stream).role == ir::StreamRole::kAssertPacked) {
          fail_wire(rec, at + 1);
        } else if (rec != nullptr && rec->fail_stream != ir::kNoStream) {
          push_stream(rec->fail_stream, rec->fail_code, at + 1);
        } else {
          direct_assert_failure(op.assert_id, at);
        }
      }
      return true;
    }
    case OpKind::kBin:
    case OpKind::kUn:
    case OpKind::kResize:
    case OpKind::kCopy:
    case OpKind::kLoad:
    case OpKind::kStore:
      break;
  }
  internal_error("sim", 0, "stream/extern/assertion path on a pure op");
}

// -------------------------------------------------------- block stepping --

void Simulator::advance_to_block(ProcState& ps, ir::BlockId next) {
  if (ela_ != nullptr) ela_->fsm_state(ps.proc, next, ps.cycle);
  ps.cur = next;
  ps.op_idx = 0;
  ps.block_entry_cycle = ps.cycle;
  // Entering the header of a pipelined loop switches to pipeline mode.
  const std::uint32_t l = ps.tape.blocks[next].loop;
  if (l == kNoLoop) {
    ps.pipe.reset();
  } else {
    const ir::LoopInfo& loop = ps.proc->loops[l];
    ps.pipe = PipeCtx{&loop, 0, ps.cycle, &ps.sched->of(loop.body)};
  }
  // A proven livelock: the process can never leave the block's region
  // and does nothing observable there, so it stops on entry.
  if ((block_word(ps, next) & kBlockTrap) != 0) trap(ps, next);
}

bool Simulator::run_sequential_block(ProcState& ps) {
  const ir::Terminator& term = ps.proc->blocks[ps.cur].term;
  const TapeBlock& tb = ps.tape.blocks[ps.cur];
  const std::uint32_t n = tb.end - tb.begin;
  // FSM skip fault: the block's datapath ops never execute; control
  // falls straight through to the terminator on stale register values.
  if (ps.op_idx == 0 && (block_word(ps, ps.cur) & kBlockSkip) != 0) ps.op_idx = n;
  const auto first = static_cast<std::uint32_t>(ps.op_idx);
  const bool hooks = tracing_ || ela_ != nullptr;
  const std::uint32_t i = run_tape(ps, ps.regs64.data(), ps.tape, tb.begin + first, tb.end,
                                   ps.block_entry_cycle, hooks);
  ps.op_idx = i - tb.begin;
  if (i < tb.end) return ps.op_idx > first;
  ps.cycle = ps.block_entry_cycle + tb.states;
  // Retire hook before the terminator switch: advance_to_block rewrites
  // ps.cur, and the profiler's timing check wants the block that ran.
  if (prof_ != nullptr) prof_->block_retired(ps.prof_idx, ps.cur, ps.cycle);
  switch (term.kind) {
    case ir::TermKind::kJump:
      advance_to_block(ps, term.on_true);
      break;
    case ir::TermKind::kBranch: {
      // FSM stuck-branch fault: a corrupted next-state register always
      // selects one successor, regardless of the condition.
      const bool taken = (block_word(ps, ps.cur) >> (ps.regs64[tb.cond] != 0)) & 1u;
      advance_to_block(ps, taken ? term.on_true : term.on_false);
      break;
    }
    case ir::TermKind::kReturn:
      ps.done = true;
      break;
  }
  return true;
}

bool Simulator::run_pipelined_loop(ProcState& ps) {
  PipeCtx& pc = *ps.pipe;
  const ir::LoopInfo& loop = *pc.loop;
  const sched::BlockSchedule& bs = *pc.bs;
  // ps.op_idx runs over the header's ops, the loop test, then the body's.
  const TapeBlock& header = ps.tape.blocks[loop.header];
  const TapeBlock& body = ps.tape.blocks[loop.body];
  const std::uint32_t h = header.pend - header.pbegin;
  std::uint64_t* s = ps.regs64.data();
  bool progress = false;

  while (true) {
    // Every op of an iteration issues from the iteration's start cycle
    // as it stood when the iteration (or its resumption) began.
    const std::uint64_t iter_base = pc.start_cycle + pc.iter * bs.ii;
    if (iter_base > opt_.max_cycles) {
      ps.blocked = true;
      ps.blocked_at = loop.loc;
      ps.block_reason = BlockReason::kCycleLimitPipelined;
      return progress;
    }
    const bool hooks = tracing_ || ela_ != nullptr;
    if (ps.op_idx < h) {
      const std::uint32_t from = header.pbegin + static_cast<std::uint32_t>(ps.op_idx);
      const std::uint32_t i = run_tape(ps, s, ps.tape, from, header.pend, iter_base, hooks);
      ps.op_idx = i - header.pbegin;
      progress |= i > from;
      if (i < header.pend) return progress;
    }
    if (ps.op_idx == h) {
      const bool taken = (block_word(ps, loop.header) >> (s[header.cond] != 0)) & 1u;
      if (!taken) {
        std::uint64_t n = pc.iter;
        ps.cycle = n == 0 ? pc.start_cycle + 1 : pc.start_cycle + bs.latency + (n - 1) * bs.ii;
        if (prof_ != nullptr) prof_->pipe_retired(ps.prof_idx, loop.body, ps.cycle, n);
        ps.pipe.reset();
        advance_to_block(ps, loop.exit);
        return true;
      }
      ++ps.op_idx;  // proceed into the body
      progress = true;
    }
    const std::uint32_t from = body.begin + static_cast<std::uint32_t>(ps.op_idx - h - 1);
    const std::uint32_t i = run_tape(ps, s, ps.tape, from, body.end, iter_base, hooks);
    ps.op_idx = h + 1 + (i - body.begin);
    progress |= i > from;
    if (i < body.end) return progress;
    ++pc.iter;
    ps.op_idx = 0;
    if (halt_ || (deadline_ != nullptr && poll_deadline())) {
      // Stopped mid-loop: the process's clock is where the last issued
      // iteration retires, by the loop-exit timing below.
      ps.cycle = pc.start_cycle + bs.latency + (pc.iter - 1) * bs.ii;
      return true;
    }
  }
}

bool Simulator::step_process(ProcState& ps) {
  bool progress = false;
  while (!ps.done && !ps.blocked && !halt_) {
    if (deadline_ != nullptr && poll_deadline()) return progress;
    if (ps.cycle > opt_.max_cycles) {
      ps.blocked = true;
      ps.blocked_at = {};
      ps.block_reason = BlockReason::kCycleLimit;
      return progress;
    }
    bool p = ps.pipe ? run_pipelined_loop(ps) : run_sequential_block(ps);
    progress |= p;
    if (!p) break;
  }
  return progress;
}

// ------------------------------------------------- compiled engine --

bool Simulator::step_process_compiled(ProcState& ps) {
  ps.st[kStProgress] = 0;
  ps.st[kStHalt] = halt_ ? 1 : 0;
  std::uint64_t r = ps.cfn(ps.regs64.data(), ps.st.data(), ps.mems64.data(), this,
                           cb_table_.data());
  ps.cycle = ps.st[kStCycle];
  switch (ret_tag(r)) {
    case kRetDone:
      ps.done = true;
      break;
    case kRetBlocked:
    case kRetHalted:
      break;  // blocked fields were set by the callback / halt_ is up
    case kRetCycleLimit:
      ps.blocked = true;
      ps.blocked_at = {};
      ps.block_reason = BlockReason::kCycleLimit;
      break;
    case kRetCycleLimitPipe:
      ps.blocked = true;
      ps.blocked_at = ps.proc->loops.at(ret_payload(r)).loc;
      ps.block_reason = BlockReason::kCycleLimitPipelined;
      break;
    case kRetTrap:
      trap(ps, static_cast<ir::BlockId>(ps.st[kStResumeBlock]));
      break;
    default:
      internal_error("sim", 0, "compiled process returned unknown action");
  }
  return ps.st[kStProgress] != 0;
}

std::uint32_t Simulator::cb_exec_trampoline(void* sim, std::uint32_t pidx, std::uint32_t block,
                                            std::uint32_t op, std::uint64_t at) {
  return static_cast<Simulator*>(sim)->compiled_exec_op(pidx, block, op, at);
}

std::uint32_t Simulator::cb_poll_trampoline(void* sim) {
  auto* s = static_cast<Simulator*>(sim);
  return s->poll_deadline() ? 1u : 0u;
}

std::uint32_t Simulator::compiled_exec_op(std::uint32_t pidx, std::uint32_t block,
                                          std::uint32_t op_idx, std::uint64_t at) {
  // The generated code already evaluated the op's predicate and
  // timestamp, and shares the register file; the interpreter's effect
  // path does the rest (the engine declines trace/ELA/profiler runs).
  ProcState& ps = procs_[pidx];
  if (!exec_effect(ps, ps.proc->blocks[block].ops[op_idx], at)) return kCbBlocked;
  ps.st[kStProgress] = 1;
  return halt_ ? kCbHalt : kCbOk;
}

namespace {

std::string reason_text(const HangWaiter& w) {
  switch (w.reason) {
    case BlockReason::kNone:
      return {};
    case BlockReason::kStreamEmpty:
      return "stream_read on '" + w.stream + "' (empty)";
    case BlockReason::kStreamFull:
      return "stream_write on '" + w.stream + "' (full)";
    case BlockReason::kCycleLimit:
      return "cycle limit exceeded";
    case BlockReason::kCycleLimitPipelined:
      return "cycle limit exceeded in pipelined loop";
    case BlockReason::kTrap:
      return "livelock in block '" + w.block + "' (no return or observable op is reachable)";
  }
  return {};
}

}  // namespace

std::string HangInfo::render() const {
  std::ostringstream os;
  os << "application hang: no process can make progress\n";
  for (const HangWaiter& w : waiters) {
    os << "  process '" << w.process << "' stuck";
    if (w.loc.valid()) os << " at line " << w.loc.line;
    std::string why = reason_text(w);
    if (!why.empty()) os << ": " << why;
    os << " (cycle " << w.cycle << ")\n";
  }
  if (kind == HangKind::kDeadlockCycle && !cycle.empty()) {
    os << "  deadlock cycle: ";
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      const HangWaiter& w = waiters[cycle[i]];
      if (i != 0) os << " <- ";
      os << w.process << " waits "
         << (w.reason == BlockReason::kStreamEmpty ? "read" : "write") << "('" << w.stream
         << "')";
    }
    os << " <- " << waiters[cycle.front()].process << "\n";
  }
  return os.str();
}

std::string HangInfo::livelock_block() const {
  if (kind != HangKind::kLivelock) return {};
  for (const HangWaiter& w : waiters) {
    if (w.reason == BlockReason::kTrap) return w.block;
  }
  return {};
}

HangInfo Simulator::diagnose_hang() const {
  HangInfo info;
  // Waiter list in process order (matches the scheduler's step order).
  std::vector<std::size_t> proc_to_waiter(procs_.size(), SIZE_MAX);
  std::unordered_map<std::string_view, std::size_t> waiter_by_name;
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    const ProcState& ps = procs_[i];
    if (ps.done) continue;
    HangWaiter w;
    w.process = ps.proc->name;
    w.reason = ps.block_reason;
    if (ps.blocked_stream != ir::kNoStream &&
        (w.reason == BlockReason::kStreamEmpty || w.reason == BlockReason::kStreamFull)) {
      w.stream = design_.stream(ps.blocked_stream).name;
    }
    if (w.reason == BlockReason::kTrap) w.block = ps.proc->block(ps.cur).name;
    w.loc = ps.blocked_at;
    w.cycle = ps.cycle;
    proc_to_waiter[i] = info.waiters.size();
    waiter_by_name.emplace(ps.proc->name, info.waiters.size());
    info.waiters.push_back(std::move(w));
  }

  // Wait-for edges: a reader waits on the blocked stream's producer, a
  // writer on its consumer. Edges only exist between stuck hardware
  // processes -- a finished peer or the CPU means starvation, not
  // deadlock.
  bool any_cycle_limited = false;
  bool any_trapped = false;
  std::vector<std::size_t> succ(info.waiters.size(), SIZE_MAX);
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    const ProcState& ps = procs_[i];
    if (ps.done) continue;
    std::size_t wi = proc_to_waiter[i];
    if (ps.cycle_limited()) {
      any_cycle_limited = true;
      continue;
    }
    if (ps.trapped()) {
      any_trapped = true;
      continue;
    }
    if (ps.blocked_stream == ir::kNoStream) continue;
    const ir::Stream& s = design_.stream(ps.blocked_stream);
    const ir::StreamEndpoint& peer =
        ps.block_reason == BlockReason::kStreamEmpty ? s.producer : s.consumer;
    if (peer.kind != ir::StreamEndpoint::Kind::kProcess) continue;
    auto it = waiter_by_name.find(peer.process);
    if (it == waiter_by_name.end()) continue;  // peer finished (or is not stepped)
    succ[wi] = it->second;
    info.waiters[wi].waits_on = peer.process;
  }

  // Cycle detection in the functional wait-for graph (each node has at
  // most one outgoing edge): walk successors until a repeat.
  std::vector<std::uint8_t> color(info.waiters.size(), 0);  // 0 white, 1 on path, 2 done
  for (std::size_t start = 0; start < succ.size() && info.cycle.empty(); ++start) {
    std::vector<std::size_t> path;
    std::size_t v = start;
    while (v != SIZE_MAX && color[v] == 0) {
      color[v] = 1;
      path.push_back(v);
      v = succ[v];
    }
    if (v != SIZE_MAX && color[v] == 1) {
      auto cyc_start = std::find(path.begin(), path.end(), v);
      info.cycle.assign(cyc_start, path.end());
    }
    for (std::size_t n : path) color[n] = 2;
  }

  if (any_cycle_limited) {
    info.kind = HangKind::kCycleLimit;
  } else if (any_trapped) {
    info.kind = HangKind::kLivelock;
  } else if (!info.cycle.empty()) {
    info.kind = HangKind::kDeadlockCycle;
  } else {
    info.kind = HangKind::kStarvation;
  }
  return info;
}

RunResult Simulator::run() {
  if (ela_ != nullptr) {
    // Initial FSM states: every process sits in its entry block at t=0
    // (advance_to_block only fires on transitions).
    for (const ProcState& ps : procs_) ela_->fsm_state(ps.proc, ps.cur, 0);
  }
  // An already-expired budget stops the run before the first cycle --
  // unconditionally, so an elapsed deadline is deterministic for tests
  // regardless of where the masked polls would have landed.
  if (deadline_ != nullptr && deadline_->expired()) {
    deadline_hit_ = true;
    halt_ = true;
  }
  bool progress = true;
  while (progress && !halt_) {
    progress = false;
    for (ProcState& ps : procs_) {
      if (ps.done) continue;
      if (ps.cycle_limited() || ps.trapped()) continue;  // never re-stepped
      ps.blocked = false;
      progress |= ps.cfn != nullptr ? step_process_compiled(ps) : step_process(ps);
      drain_cpu_streams();
      if (halt_) break;
    }
  }
  drain_cpu_streams();

  RunResult result;
  result.failures = notify_.failures();
  for (const ProcState& ps : procs_) result.cycles = std::max(result.cycles, ps.cycle);
  bool all_done = std::all_of(procs_.begin(), procs_.end(),
                              [](const ProcState& p) { return p.done; });
  if (deadline_hit_) {
    result.status = RunStatus::kDeadline;
  } else if (halt_) {
    result.status = RunStatus::kAborted;
  } else if (all_done) {
    result.status = RunStatus::kCompleted;
  } else {
    result.status = RunStatus::kHung;
    result.hang = diagnose_hang();
    result.hang_report = result.hang->render();
  }
  result.trace_truncated = opt_.trace && !tracing_;

  if (prof_ != nullptr) {
    for (const ProcState& ps : procs_) {
      metrics::EndKind ek = metrics::EndKind::kHalted;
      if (ps.done) {
        ek = metrics::EndKind::kFinished;
      } else if (ps.blocked && ps.block_reason == BlockReason::kStreamEmpty) {
        ek = metrics::EndKind::kBlockedRead;
      } else if (ps.blocked && ps.block_reason == BlockReason::kStreamFull) {
        ek = metrics::EndKind::kBlockedWrite;
      } else if (ps.cycle_limited()) {
        ek = metrics::EndKind::kCycleLimit;
      } else if (ps.trapped()) {
        ek = metrics::EndKind::kLivelock;
      }
      ir::StreamId blocked = ek == metrics::EndKind::kBlockedRead ||
                                     ek == metrics::EndKind::kBlockedWrite
                                 ? ps.blocked_stream
                                 : ir::kNoStream;
      prof_->process_end(ps.prof_idx, ps.cycle, ek, blocked);
    }
    prof_->run_end(result.cycles, result.status == RunStatus::kCompleted);
  }
  return result;
}

void Simulator::drain_cpu_streams() {
  if (dirty_cpu_streams_.empty()) return;
  // Deliver in stream-id order so the multiplexed-channel slots match a
  // full scan over design_.streams exactly.
  std::sort(dirty_cpu_streams_.begin(), dirty_cpu_streams_.end());
  for (std::size_t i = 0; i < dirty_cpu_streams_.size(); ++i) {
    ir::StreamId id = dirty_cpu_streams_[i];
    StreamState& st = streams_[id];
    while (!st.fifo.empty()) {
      if (halt_) {
        // The abort stops the channel; later words stay queued (and the
        // streams stay dirty) but are never delivered.
        dirty_cpu_streams_.erase(dirty_cpu_streams_.begin(),
                                 dirty_cpu_streams_.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
      FifoEntry e = st.fifo.front();
      st.fifo.pop_front();
      // Channel corruption faults hit the word in flight, whatever it
      // carries -- data or an assertion failure notification.
      if (channel_faulted_) {
        BitVector bv = stream_bits(id, e.value);
        opt_.faults.on_channel_word(channel_word_seq_++, bv);
        e.value = bv.to_u64();
      }
      // All CPU-bound words share one physical channel (paper §3):
      // serialize delivery slots.
      std::uint64_t delivered = e.time;
      if (opt_.model_channel_mux) {
        delivered = std::max(e.time, channel_busy_until_ + 1);
        channel_busy_until_ = delivered;
      }
      if (st.notifies) {
        if (notify_.on_word(id, e.value, delivered)) halt_ = true;
      } else {
        st.cpu_received.push_back(e.value);
      }
    }
    st.dirty = false;
  }
  dirty_cpu_streams_.clear();
}

std::string Simulator::render_trace(const SourceManager* sm) const {
  std::ostringstream os;
  for (const TraceEvent& e : trace_) {
    os << "[" << e.cycle << "] " << e.process << ": " << ir::op_traits(e.kind).name;
    if (e.loc.valid()) {
      os << " @ ";
      if (sm != nullptr) os << sm->name(e.loc.file) << ":";
      os << "line " << e.loc.line;
    }
    os << '\n';
  }
  return os.str();
}

const ExternRegistry::Fn* Simulator::extern_fn(const std::string& name) const {
  return opt_.mode == SimMode::kSoftware ? externs_.c_model(name) : externs_.hdl_model(name);
}

RunResult simulate(const ir::Design& design, const ExternRegistry& externs,
                   const std::map<std::string, std::vector<std::uint64_t>>& feeds,
                   SimOptions options) {
  sched::DesignSchedule schedule = sched::schedule_design(design);
  Simulator sim(design, schedule, externs, options);
  for (const auto& [name, values] : feeds) sim.feed(name, values);
  return sim.run();
}

}  // namespace hlsav::sim
