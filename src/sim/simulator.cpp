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

Program::Program(const ir::Design& design, const sched::DesignSchedule& schedule)
    : design_(design), schedule_(schedule), notify_index_(design) {
  stream_ids_.reserve(design.streams.size());
  for (const ir::Stream& s : design.streams) {
    stream_ids_.emplace(s.name, s.id);  // first name wins, as in a linear scan
  }
  memories_.resize(design.memories.size());
  for (const ir::Memory& m : design.memories) {
    auto& mem = memories_[m.id];
    mem.assign(m.size, 0);
    for (std::size_t i = 0; i < m.init.size() && i < mem.size(); ++i) {
      mem[i] = m.init[i].to_u64();
    }
  }

  // Resolve every per-op linear lookup once: assertion-carrying ops map
  // to their records, tapped ones to their checker. The indices keep the
  // first match, like Design::find_assertion / find_process (the
  // notification index keeps the first record of an id too).
  const auto& records_by_id = notify_index_.by_id;
  std::unordered_map<std::string_view, const ir::Process*> procs_by_name;
  procs_by_name.reserve(design.processes.size());
  for (const auto& p : design.processes) procs_by_name.emplace(p->name, p.get());
  std::unordered_map<std::string_view, const sched::ProcessSchedule*> scheds_by_name;
  scheds_by_name.reserve(schedule.processes.size());
  for (const sched::ProcessSchedule& s : schedule.processes) scheds_by_name.emplace(s.process, &s);
  std::unordered_map<const ir::AssertionRecord*, std::size_t> checker_of;
  checkers_.reserve(design.assertions.size());
  for (const ir::AssertionRecord& rec : design.assertions) {
    if (rec.checker_process.empty()) continue;
    auto pit = procs_by_name.find(rec.checker_process);
    if (pit == procs_by_name.end()) continue;  // exec_effect reports this if ever tapped
    const ir::Process* chk = pit->second;
    const BasicBlock& block =
        chk->block(rec.checker_block != ir::kNoBlock ? rec.checker_block : chk->entry);
    Checker c;
    c.tape = decode_checker(design, *chk, block);
    c.base = checker_slots_.size();
    checker_slots_.insert(checker_slots_.end(), c.tape.slots.begin(), c.tape.slots.end());
    c.touched.assign(rec.checker_inputs.begin(), rec.checker_inputs.end());
    for (const Op& op : block.ops) {
      if (ir::op_traits(op.kind).has_dest) c.touched.push_back(op.dest);
    }
    std::sort(c.touched.begin(), c.touched.end());
    c.touched.erase(std::unique(c.touched.begin(), c.touched.end()), c.touched.end());
    checker_of.emplace(&rec, checkers_.size());
    checkers_.push_back(std::move(c));
  }
  op_assertions_.reserve(design.assertions.size() * 2);
  for (const auto& p : design.processes) {
    for (const BasicBlock& b : p->blocks) {
      for (const Op& op : b.ops) {
        if (!ir::op_traits(op.kind).zero_cost) continue;
        auto it = records_by_id.find(op.assert_id);
        OpAssertInfo info;
        info.rec = it == records_by_id.end() ? nullptr : it->second;
        if (info.rec != nullptr) {
          auto cit = checker_of.find(info.rec);
          if (cit != checker_of.end()) info.checker = &checkers_[cit->second];
        }
        op_assertions_.emplace(&op, info);
      }
    }
  }

  procs_.reserve(design.processes.size());
  for (const auto& p : design.processes) {
    if (p->role != ir::ProcessRole::kApplication) continue;
    Proc d;
    d.proc = p.get();
    auto sit = scheds_by_name.find(p->name);
    d.sched = sit == scheds_by_name.end() ? nullptr : sit->second;
    HLSAV_CHECK(d.sched != nullptr, "no schedule for process " + p->name);
    d.layout = ProcLayout::of(*p);
    d.tape = decode_process(design, *p, *d.sched, &d.layout);
    d.traps = TrapIndex(*p);
    // Neutral words: branches free, BRAM pairs AND all ones and XOR 0,
    // comparison masks all ones.
    const ProcLayout& l = d.layout;
    d.neutral.assign(l.words, 0);
    std::fill(d.neutral.begin() + l.branch, d.neutral.begin() + l.store, kBranchFree);
    for (std::uint32_t w = l.store; w < l.compare; w += 2) d.neutral[w] = ~std::uint64_t{0};
    std::fill(d.neutral.begin() + l.compare, d.neutral.end(), ~std::uint64_t{0});
    d.neutral_traps.assign(d.neutral.begin() + l.branch, d.neutral.begin() + l.store);
    mark_traps(d.traps, d.neutral_traps.data());
    procs_.push_back(std::move(d));
  }
}

Simulator::Simulator(const Program& program, const ExternRegistry& externs, SimOptions options)
    : prog_(program),
      design_(program.design()),
      externs_(externs),
      opt_(std::move(options)),
      notify_(program.notify_index_) {
  init_state();
}

Simulator::Simulator(const ir::Design& design, const sched::DesignSchedule& schedule,
                     const ExternRegistry& externs, SimOptions options)
    : own_program_(std::make_unique<const Program>(design, schedule)),
      prog_(*own_program_),
      design_(design),
      externs_(externs),
      opt_(std::move(options)),
      notify_(prog_.notify_index_) {
  init_state();
}

void Simulator::init_state() {
  ela_ = opt_.ela;
  prof_ = opt_.profile;
  deadline_ = opt_.deadline;
  inject_faults_ = opt_.mode == SimMode::kHardware && !opt_.faults.empty();
  if (inject_faults_) stream_write_seq_.assign(design_.streams.size(), 0);

  streams_.resize(design_.streams.size());
  for (const ir::Stream& s : design_.streams) {
    StreamState& st = streams_[s.id];
    st.width = s.width;
    st.depth = s.depth;
    st.cpu_producer = s.producer.kind == ir::StreamEndpoint::Kind::kCpu;
    st.cpu_consumer = s.consumer.kind == ir::StreamEndpoint::Kind::kCpu;
    st.notifies = st.cpu_consumer && (s.role == ir::StreamRole::kAssertFail ||
                                      s.role == ir::StreamRole::kAssertPacked);
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
  mem64_ = prog_.memories_;
  checker_slots_ = prog_.checker_slots_;

  procs_.reserve(prog_.procs_.size());
  for (const Program::Proc& def : prog_.procs_) {
    ProcState ps;
    ps.proc = def.proc;
    ps.def = &def;
    ps.cur = def.proc->entry;
    ps.regs64 = def.tape.slots;
    if (prof_ != nullptr) ps.prof_idx = prof_->index_of(def.proc);
    arm_fault_words(ps);
    procs_.push_back(std::move(ps));
  }
  init_engine();
  // advance_to_block tests the trap bit on every later entry.
  for (ProcState& ps : procs_) {
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
    for (std::uint32_t m : ps.def->layout.mems) ps.mems64.push_back(mem64_[m].data());
  }
  // Every op slot (kCbStreamRead..kCbAssert) takes the one op callback.
  cb_table_.fill(reinterpret_cast<const void*>(&Simulator::cb_exec_trampoline));
  cb_table_[kCbPoll] = reinterpret_cast<const void*>(&Simulator::cb_poll_trampoline);
}

void Simulator::arm_fault_words(ProcState& ps) const {
  const Program::Proc& def = *ps.def;
  const ProcLayout& layout = def.layout;
  ps.st = def.neutral;
  if (!inject_faults_) return;
  std::uint64_t* st = ps.st.data();

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
  // Block words the faults left neutral keep the Program's trap marks;
  // others are proved again on the faulted CFG.
  std::uint64_t* blocks = st + layout.branch;
  if (std::equal(blocks, st + layout.store, def.neutral.begin() + layout.branch)) {
    std::copy(def.neutral_traps.begin(), def.neutral_traps.end(), blocks);
  } else {
    mark_traps(def.traps, blocks);
  }
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
  auto it = prog_.stream_ids_.find(name);
  if (it == prog_.stream_ids_.end()) {
    internal_error("sim", 0, "unknown stream '" + std::string(name) + "'");
  }
  return it->second;
}

const ir::AssertionRecord* Simulator::assertion_of(const Op& op) const {
  auto it = prog_.op_assertions_.find(&op);
  return it == prog_.op_assertions_.end() ? design_.find_assertion(op.assert_id)
                                          : it->second.rec;
}

void Simulator::feed(std::string_view stream_name, const std::vector<std::uint64_t>& values) {
  feed(stream_by_name(stream_name), values);
}

void Simulator::feed(ir::StreamId stream, const std::vector<std::uint64_t>& values) {
  // Silent truncation here would make a bad harness input look exactly
  // like an injected hardware fault; reject it loudly instead.
  const Status st = check_feed(stream, values);
  HLSAV_CHECK(st.ok(), st.message());
  for (std::uint64_t v : values) streams_[stream].fifo.push_back(FifoEntry{v, 0});
  mark_cpu_dirty(stream);  // a CPU->CPU stream delivers on the next drain
}

Status Simulator::check_feed(ir::StreamId stream, const std::vector<std::uint64_t>& values) const {
  const ir::Stream& s = design_.stream(stream);
  if (!streams_[stream].cpu_producer) {
    return Status::invalid_argument("stream '" + s.name + "' is not CPU-fed");
  }
  for (std::uint64_t v : values) {
    if (s.width < 64 && (v >> s.width) != 0) {
      return Status::invalid_argument("feed value " + std::to_string(v) +
                                      " does not fit stream '" + s.name + "' (" +
                                      std::to_string(s.width) + " bits)");
    }
  }
  return Status::ok_status();
}

Status Simulator::try_feed(std::string_view stream_name,
                           const std::vector<std::uint64_t>& values) {
  auto it = prog_.stream_ids_.find(stream_name);
  if (it == prog_.stream_ids_.end()) {
    return Status::invalid_argument("unknown stream '" + std::string(stream_name) + "'");
  }
  HLSAV_RETURN_IF_ERROR(check_feed(it->second, values));
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

void Simulator::fail_wire(const ir::AssertionRecord* rec, std::uint64_t at) {
  HLSAV_CHECK(rec != nullptr && rec->fail_stream != ir::kNoStream,
              "fail wire without a collector stream");
  push_stream(rec->fail_stream, std::uint64_t{1} << rec->fail_bit, at);
}

void Simulator::eval_checker(const ir::AssertionRecord& rec, const Program::Checker& c,
                             ProcState& ps, const Op& tap, std::uint64_t at) {
  // Fresh slot file per evaluation: it only ever diverges from the zero
  // registers at the touched ones, so zero just those, then wire in the
  // tapped values straight from the application's registers.
  std::uint64_t* s = checker_slots_.data() + c.base;
  for (ir::RegId r : c.touched) s[r] = 0;
  HLSAV_CHECK(tap.args.size() == rec.checker_inputs.size(), "tap arity mismatch");
  for (std::size_t i = 0; i < tap.args.size(); ++i) {
    s[rec.checker_inputs[i]] = word(ps.regs64.data(), tap.args[i]);
  }
  // Grouped checkers evaluate only this assertion's sub-block. Its ops
  // all read the tap's time; a failure is sent a cycle later.
  checker_failed_ = false;
  const auto n = static_cast<std::uint32_t>(c.tape.ops.size());
  run_tape(ps, s, c.tape, 0, n, at, /*hooks=*/false);
  const bool failed = checker_failed_;
  // The checker's verdict, attributed to the checker process (it owns
  // the failure wire) at the tap's source position.
  if (ela_ != nullptr) ela_->assert_verdict(c.tape.proc, rec.id, failed, at, tap.loc);
  if (prof_ != nullptr) prof_->assert_eval(ps.prof_idx, rec.id, failed, at);
}

// ------------------------------------------------------------ op exec --

std::uint32_t Simulator::run_tape(ProcState& ps, std::uint64_t* s, const Tape& t,
                                  std::uint32_t i, std::uint32_t end, const std::uint64_t& base,
                                  bool hooks) {
  const std::uint64_t* st = ps.st.data();
  const TapeOp* ops = t.ops.data();
  for (; i < end; ++i) {
    const TapeOp& o = ops[i];
    if (o.pred != TapePred::kAlways && (s[o.p] != 0) != (o.pred == TapePred::kIfSet)) continue;
    if (o.code < TapeCode::kLoad) [[likely]] {
      s[o.dest] = eval_pure(o, s, st);
      if (hooks) [[unlikely]] {
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
        if (hooks) [[unlikely]] {
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
        if (hooks) [[unlikely]] {
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
    case OpKind::kAssertTap: {
      auto it = prog_.op_assertions_.find(&op);
      const bool found = it != prog_.op_assertions_.end();
      const ir::AssertionRecord* rec = found ? it->second.rec : design_.find_assertion(op.assert_id);
      HLSAV_CHECK(rec != nullptr, "tap without assertion record");
      const Program::Checker* c = found ? it->second.checker : nullptr;
      HLSAV_CHECK(c != nullptr, "missing checker process " + rec->checker_process);
      eval_checker(*rec, *c, ps, op, at);
      return true;
    }
    case OpKind::kAssert:
    case OpKind::kAssertFailWire:
    case OpKind::kAssertCycles: {
      // A direct assert (software simulation / pre-synthesis designs) and
      // a failure wire fail on a zero condition; a timing assertion when
      // more cycles than its budget passed since the previous marker in
      // this process (or process start).
      bool failed = false;
      if (op.kind == OpKind::kAssertCycles) {
        failed = at - std::min(at, ps.cycle_marker) > op.cycle_bound;
        ps.cycle_marker = at;
      } else {
        failed = word(ps.regs64.data(), op.args[0]) == 0;
      }
      if (ela_ != nullptr) ela_->assert_verdict(ps.proc, op.assert_id, failed, at, op.loc);
      if (prof_ != nullptr) prof_->assert_eval(ps.prof_idx, op.assert_id, failed, at);
      if (!failed) return true;
      const ir::AssertionRecord* rec = op.kind == OpKind::kAssert ? nullptr : assertion_of(op);
      const bool to_stream = rec != nullptr && rec->fail_stream != ir::kNoStream;
      if (op.kind == OpKind::kAssertFailWire ||
          (to_stream && design_.stream(rec->fail_stream).role == ir::StreamRole::kAssertPacked)) {
        fail_wire(rec, at + 1);
      } else if (to_stream) {
        push_stream(rec->fail_stream, rec->fail_code, at + 1);
      } else {
        if (notify_.on_direct(op.assert_id, at)) halt_ = true;
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
  const std::uint32_t l = ps.def->tape.blocks[next].loop;
  if (l == kNoLoop) {
    ps.pipe.reset();
  } else {
    const ir::LoopInfo& loop = ps.proc->loops[l];
    ps.pipe = PipeCtx{&loop, 0, ps.cycle, &ps.def->sched->of(loop.body)};
  }
  // A proven livelock: the process can never leave the block's region
  // and does nothing observable there, so it stops on entry.
  if ((block_word(ps, next) & kBlockTrap) != 0) trap(ps, next);
}

bool Simulator::run_sequential_block(ProcState& ps) {
  const ir::Terminator& term = ps.proc->blocks[ps.cur].term;
  const TapeBlock& tb = ps.def->tape.blocks[ps.cur];
  const std::uint32_t n = tb.end - tb.begin;
  // FSM skip fault: the block's datapath ops never execute; control
  // falls straight through to the terminator on stale register values.
  if (ps.op_idx == 0 && (block_word(ps, ps.cur) & kBlockSkip) != 0) ps.op_idx = n;
  const auto first = static_cast<std::uint32_t>(ps.op_idx);
  const bool hooks = ela_ != nullptr;
  const std::uint32_t i = run_tape(ps, ps.regs64.data(), ps.def->tape, tb.begin + first, tb.end,
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
  const TapeBlock& header = ps.def->tape.blocks[loop.header];
  const TapeBlock& body = ps.def->tape.blocks[loop.body];
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
    const bool hooks = ela_ != nullptr;
    if (ps.op_idx < h) {
      const std::uint32_t from = header.pbegin + static_cast<std::uint32_t>(ps.op_idx);
      const std::uint32_t i = run_tape(ps, s, ps.def->tape, from, header.pend, iter_base, hooks);
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
    const std::uint32_t i = run_tape(ps, s, ps.def->tape, from, body.end, iter_base, hooks);
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
  // path does the rest (the engine declines ELA and profiler runs).
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
