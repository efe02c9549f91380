#include "sim/fault.h"

#include <sstream>

namespace hlsav::sim {

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kNarrowCompare: return "narrow-compare";
    case FaultKind::kStreamDrop: return "stream-drop";
    case FaultKind::kStreamDup: return "stream-dup";
    case FaultKind::kStreamStuck: return "stream-stuck";
    case FaultKind::kBramBitFlip: return "bram-bit-flip";
    case FaultKind::kBramStuckAt: return "bram-stuck-at";
    case FaultKind::kFsmStuckBranch: return "fsm-stuck-branch";
    case FaultKind::kFsmSkipBlock: return "fsm-skip-block";
    case FaultKind::kExternCorrupt: return "extern-corrupt";
    case FaultKind::kChannelCorrupt: return "channel-corrupt";
  }
  HLSAV_UNREACHABLE("bad FaultKind");
}

// ------------------------------------------------------------ factories --

// Designated initializers follow FaultSpec's member order.

FaultSpec FaultSpec::narrow_compare(std::string process, std::uint32_t line, unsigned width) {
  return {.kind = FaultKind::kNarrowCompare, .process = std::move(process), .line = line,
          .width = width};
}

FaultSpec FaultSpec::stream_drop(ir::StreamId s, std::uint64_t word_index) {
  return {.kind = FaultKind::kStreamDrop, .stream = s, .word_index = word_index};
}

FaultSpec FaultSpec::stream_dup(ir::StreamId s, std::uint64_t word_index) {
  return {.kind = FaultKind::kStreamDup, .stream = s, .word_index = word_index};
}

FaultSpec FaultSpec::stream_stuck(ir::StreamId s, std::uint64_t from_word, std::uint64_t value) {
  return {.kind = FaultKind::kStreamStuck, .stream = s, .word_index = from_word,
          .stuck_value = value};
}

FaultSpec FaultSpec::bram_bit_flip(ir::MemId m, unsigned bit) {
  return {.kind = FaultKind::kBramBitFlip, .mem = m, .bit = bit};
}

FaultSpec FaultSpec::bram_stuck_at(ir::MemId m, unsigned bit, bool level) {
  return {.kind = FaultKind::kBramStuckAt, .mem = m, .bit = bit, .stuck_one = level};
}

FaultSpec FaultSpec::fsm_stuck_branch(std::string process, ir::BlockId block, bool taken) {
  return {.kind = FaultKind::kFsmStuckBranch, .process = std::move(process), .block = block,
          .branch_taken = taken};
}

FaultSpec FaultSpec::fsm_skip_block(std::string process, ir::BlockId block) {
  return {.kind = FaultKind::kFsmSkipBlock, .process = std::move(process), .block = block};
}

FaultSpec FaultSpec::extern_corrupt(std::string callee, std::uint64_t xor_mask) {
  return {.kind = FaultKind::kExternCorrupt, .callee = std::move(callee), .xor_mask = xor_mask};
}

FaultSpec FaultSpec::channel_corrupt(std::uint64_t word_index, unsigned bit) {
  return {.kind = FaultKind::kChannelCorrupt, .word_index = word_index, .bit = bit};
}

std::string FaultSpec::describe(const ir::Design& design) const {
  std::ostringstream os;
  switch (kind) {
    case FaultKind::kNarrowCompare:
      os << "narrow compare in '" << process << "'";
      if (line != 0) os << " line " << line;
      os << " to " << width << " bits";
      break;
    case FaultKind::kStreamDrop:
      os << "drop word " << word_index << " written to '" << design.stream(stream).name << "'";
      break;
    case FaultKind::kStreamDup:
      os << "duplicate word " << word_index << " written to '" << design.stream(stream).name
         << "'";
      break;
    case FaultKind::kStreamStuck:
      os << "stuck value " << stuck_value << " on '" << design.stream(stream).name
         << "' from word " << word_index;
      break;
    case FaultKind::kBramBitFlip:
      os << "flip bit " << bit << " of writes to RAM '" << design.memory(mem).name << "'";
      break;
    case FaultKind::kBramStuckAt:
      os << "bit " << bit << " stuck-at-" << (stuck_one ? 1 : 0) << " on writes to RAM '"
         << design.memory(mem).name << "'";
      break;
    case FaultKind::kFsmStuckBranch: {
      const ir::Process* p = design.find_process(process);
      os << "branch stuck " << (branch_taken ? "taken" : "not-taken") << " in '" << process
         << "' block '" << (p != nullptr ? p->block(block).name : std::to_string(block)) << "'";
      break;
    }
    case FaultKind::kFsmSkipBlock: {
      const ir::Process* p = design.find_process(process);
      os << "skip block '" << (p != nullptr ? p->block(block).name : std::to_string(block))
         << "' in '" << process << "'";
      break;
    }
    case FaultKind::kExternCorrupt:
      os << "corrupt extern '" << callee << "' result (xor 0x" << std::hex << xor_mask
         << std::dec << ")";
      break;
    case FaultKind::kChannelCorrupt:
      os << "corrupt CPU channel word " << word_index << " (flip bit " << bit << ")";
      break;
  }
  return os.str();
}

// --------------------------------------------------------- engine hooks --

FaultEngine::StreamAction FaultEngine::on_stream_write(ir::StreamId s, std::uint64_t index,
                                                       BitVector& value) const {
  StreamAction action = StreamAction::kPass;
  for (const FaultSpec& f : faults_) {
    switch (f.kind) {
      case FaultKind::kStreamDrop:
        if (f.stream == s && f.word_index == index) action = StreamAction::kDrop;
        break;
      case FaultKind::kStreamDup:
        if (f.stream == s && f.word_index == index) action = StreamAction::kDup;
        break;
      case FaultKind::kStreamStuck:
        if (f.stream == s && index >= f.word_index) {
          value = BitVector::from_u64(value.width(), f.stuck_value);
        }
        break;
      default:
        break;
    }
  }
  return action;
}

void FaultEngine::on_extern_result(const std::string& callee, BitVector& value) const {
  for (const FaultSpec& f : faults_) {
    if (f.kind != FaultKind::kExternCorrupt || f.callee != callee) continue;
    value = value.bxor(BitVector::from_u64(value.width(), f.xor_mask));
  }
}

void FaultEngine::on_channel_word(std::uint64_t index, BitVector& value) const {
  for (const FaultSpec& f : faults_) {
    if (f.kind != FaultKind::kChannelCorrupt || f.word_index != index) continue;
    if (f.bit >= value.width()) continue;
    value.set_bit(f.bit, !value.bit(f.bit));
  }
}

// ------------------------------------------------------ site enumeration --

namespace {

/// True if block `b` of `proc` participates in a pipelined loop (the
/// pipelined interpreter path executes those; skip-block sites would be
/// silently inert there, so they are not enumerated).
bool in_pipelined_loop(const ir::Process& proc, ir::BlockId b) {
  for (const ir::LoopInfo& l : proc.loops) {
    if (l.pipelined && (l.header == b || l.body == b)) return true;
  }
  return false;
}

bool is_pipelined_body(const ir::Process& proc, ir::BlockId b) {
  for (const ir::LoopInfo& l : proc.loops) {
    if (l.pipelined && l.body == b) return true;
  }
  return false;
}

}  // namespace

std::vector<FaultSpec> enumerate_fault_sites(const ir::Design& design,
                                             const sched::DesignSchedule& schedule) {
  std::vector<FaultSpec> sites;
  auto emit = [&sites](FaultSpec f) {
    f.id = static_cast<std::uint32_t>(sites.size());
    sites.push_back(std::move(f));
  };

  // 1. Translation faults: one narrowed-compare site per (process,
  //    source line) carrying a comparison wider than the narrow width.
  for (const ir::Process* p : design.application_processes()) {
    std::uint32_t last_line = 0;
    for (const ir::BasicBlock& b : p->blocks) {
      for (const ir::Op& op : b.ops) {
        if (!op.is_comparison()) continue;
        unsigned w = p->operand_width(op.args[0]);
        unsigned narrow = w > 5 ? 5u : (w > 1 ? w - 1 : 0u);
        if (narrow == 0 || op.loc.line == 0 || op.loc.line == last_line) continue;
        last_line = op.loc.line;
        emit(FaultSpec::narrow_compare(p->name, op.loc.line, narrow));
      }
    }
  }

  // 2. Stream handshake faults on every hardware-written FIFO.
  for (ir::StreamId id : design.live_stream_ids()) {
    const ir::Stream& s = design.stream(id);
    if (s.producer.kind != ir::StreamEndpoint::Kind::kProcess) continue;
    emit(FaultSpec::stream_drop(id, 0));
    emit(FaultSpec::stream_dup(id, 0));
    emit(FaultSpec::stream_stuck(id, 0, 0));
  }

  // 3. BRAM cell faults on every writable memory (ROMs are never
  //    written; replicas mirror application writes and are covered by
  //    faulting the original's store path).
  for (const ir::Memory& m : design.memories) {
    if (m.role != ir::MemRole::kData || m.size == 0) continue;
    emit(FaultSpec::bram_bit_flip(m.id, 0));
    if (m.width > 1) emit(FaultSpec::bram_bit_flip(m.id, m.width - 1));
    emit(FaultSpec::bram_stuck_at(m.id, 0, true));
  }

  // 4. FSM control faults on scheduled application blocks.
  for (const ir::Process* p : design.application_processes()) {
    const sched::ProcessSchedule* ps = schedule.find(p->name);
    for (const ir::BasicBlock& b : p->blocks) {
      bool scheduled = ps != nullptr && b.id < ps->blocks.size() &&
                       (ps->of(b.id).num_states > 0 || ps->of(b.id).pipelined);
      if (!scheduled) continue;
      if (!b.ops.empty() && !in_pipelined_loop(*p, b.id)) {
        emit(FaultSpec::fsm_skip_block(p->name, b.id));
      }
      // Pipelined bodies jump back unconditionally; their loop test
      // lives in the header, which the pipelined path does evaluate.
      if (b.term.kind == ir::TermKind::kBranch && !is_pipelined_body(*p, b.id)) {
        emit(FaultSpec::fsm_stuck_branch(p->name, b.id, true));
        emit(FaultSpec::fsm_stuck_branch(p->name, b.id, false));
      }
    }
  }

  // 5. External HDL cores returning wrong results.
  for (const ir::ExternFunc& fn : design.extern_funcs) {
    emit(FaultSpec::extern_corrupt(fn.name, 1));
  }

  // 6. The multiplexed CPU channel corrupting a delivered word.
  bool any_cpu_consumer = false;
  for (ir::StreamId id : design.live_stream_ids()) {
    if (design.stream(id).consumer.kind == ir::StreamEndpoint::Kind::kCpu) {
      any_cpu_consumer = true;
      break;
    }
  }
  if (any_cpu_consumer) {
    emit(FaultSpec::channel_corrupt(0, 0));
    emit(FaultSpec::channel_corrupt(1, 0));
  }

  return sites;
}

}  // namespace hlsav::sim
