// Design simulator.
//
// Two modes sharing one execution core:
//
//  * kSoftware -- the paper's "software simulation": source semantics,
//    C models for external HDL functions, no translation faults, assert
//    statements evaluated directly. Run it on the design *before*
//    assertion synthesis.
//
//  * kHardware -- in-circuit execution: the synthesized design (after
//    assertions::synthesize), HDL behaviours for external functions,
//    translation-fault injection active, and cycle accounting driven by
//    the schedule (sequential blocks charge their FSM states; pipelined
//    loops charge latency + (n-1) * rate; blocking stream handshakes
//    stall with timestamped FIFO entries).
//
// Processes run cooperatively: each has a local clock; a blocked stream
// op suspends the process until the peer makes progress. If no process
// can make progress and the application has not completed, the run is
// reported as a hang together with each stuck process's source position
// -- this is what the paper's §5.1 assert(0)/NABORT tracing example
// diagnoses.
//
// Failure streams are drained into the assertions::NotificationFunction
// the moment a failure word is sent; it renders the ANSI-C message and
// halts the run unless NABORT. Data words reach the CPU when their
// process yields (see drain_cpu_streams).
// Checker processes are evaluated reactively when the application
// executes their kAssertTap (their latency only delays notification,
// exactly as the paper argues), and collector processes forward packed
// failure words.
//
// Program and run state: a sim::Program holds what every run of one
// design and schedule reads and none writes -- each application process's
// op tape (sim/tape.h), fault-word layout and trap index, the trap marks
// of its neutral fault words, each checker block's tape, the stream,
// assertion and op->assertion lookups, the notification index and the
// initial memory images. It is built once and shared read-only: a
// campaign's golden run and all its fault sites, on any number of
// threads, borrow their plan's. A Simulator owns only what a run writes:
// registers, state and fault words, FIFOs, memory copies and clocks.
//
// Hot path: an interpreted process runs from its op tape: flat opcodes
// over the u64 register file compiled processes also use, immediates
// pooled into slots, destination masks and FSM-state offsets
// precomputed. One executor (run_tape) runs sequential blocks,
// pipelined-loop iterations and checker evaluations; the ELA and trace
// hooks sit behind a test made once per call, and build a BitVector
// only when armed. CPU-bound stream draining is event-driven off a
// dirty list instead of scanning every stream after every process step.
#pragma once

#include <array>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "assertions/notify.h"
#include "ir/ir.h"
#include "sched/schedule.h"
#include "sim/compiled.h"
#include "sim/extern_registry.h"
#include "sim/fault.h"
#include "sim/tape.h"
#include "support/status.h"

namespace hlsav::trace {
class TraceEngine;
}

namespace hlsav::metrics {
class Profiler;
}

namespace hlsav::sim {

enum class SimMode { kSoftware, kHardware };

/// Wall-clock watchdog budget. The simulator polls it cooperatively
/// (counter-masked, so the hot loop pays an increment-and-mask, not a
/// clock read, per poll site) and stops with RunStatus::kDeadline once
/// it expires. An already-expired deadline stops the run before the
/// first cycle -- that determinism is what the watchdog tests key on.
struct Deadline {
  std::chrono::steady_clock::time_point at{};

  [[nodiscard]] bool expired() const { return std::chrono::steady_clock::now() >= at; }

  /// A deadline `ms` milliseconds from now (non-positive: already expired).
  [[nodiscard]] static Deadline in_ms(double ms) {
    auto delta = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double, std::milli>(ms));
    return Deadline{std::chrono::steady_clock::now() + delta};
  }
};

struct SimOptions {
  SimMode mode = SimMode::kHardware;
  /// Stop and report a hang after this many cycles on any local clock.
  std::uint64_t max_cycles = 50'000'000;
  /// Model the paper's single time-multiplexed physical CPU channel:
  /// words bound for the CPU deliver one per cycle, in arrival order,
  /// so a failure notification can be delayed behind data traffic (the
  /// paper argues this never stalls the application -- and it doesn't:
  /// only CPU-side delivery stamps shift).
  bool model_channel_mux = true;
  /// Record an execution trace (per-op events, capped at trace_limit).
  bool trace = false;
  std::size_t trace_limit = 100'000;
  /// Armed ELA capture engine (borrowed; may be null). When set, the
  /// simulator feeds per-cycle events -- FSM transitions, register
  /// writes, stream handshakes, BRAM ports, assertion verdicts -- into
  /// its ring buffers. Disabled costs one pointer test per block run.
  trace::TraceEngine* ela = nullptr;
  /// Armed cycle-attribution profiler (borrowed; may be null). Fed at
  /// block/pipeline retire, stream stalls and assertion evaluations --
  /// never per op, so the fast path stays on. Disabled costs one
  /// pointer test per hook site.
  metrics::Profiler* profile = nullptr;
  /// Wall-clock watchdog (borrowed; may be null). Polled at block-step
  /// and pipeline-iteration boundaries behind the same one-pointer-test
  /// pattern as `ela`/`profile`: disabled costs one branch per site.
  const Deadline* deadline = nullptr;
  FaultEngine faults;
  /// Execution engine. kCompiled/kAuto use the functions in `compiled`
  /// for the processes they cover and interpret the rest; the simulator
  /// itself falls back to full interpretation (and says why in
  /// engine_note()) when no handle is attached or when an armed
  /// observability feature -- trace, ELA, profiler -- needs the
  /// interpreter's per-op hooks. Armed faults never force a fallback:
  /// both engines read the same per-process fault words. Cycle counts,
  /// RunResults and received words are bit-identical across engines;
  /// the differential suite (tests/codegen) enforces that.
  SimEngine engine = SimEngine::kInterpreter;
  /// Borrowed compiled design (see codegen::compile_design). Must
  /// outlive the simulator. Ignored when engine == kInterpreter.
  const CompiledDesignHandle* compiled = nullptr;
};

/// One traced op execution (trace mode). The closest thing the flow has
/// to a waveform: which process executed what, when, and from which
/// source line.
struct TraceEvent {
  std::uint64_t cycle = 0;
  std::string process;
  ir::OpKind kind = ir::OpKind::kCopy;
  SourceLoc loc;
};

enum class RunStatus : std::uint8_t {
  kCompleted,  // every application process returned
  kAborted,    // halted by an assertion failure (NABORT off)
  kHung,       // deadlock or cycle limit: some process never finished
  kDeadline,   // SimOptions::deadline expired (wall-clock watchdog)
};

/// Why a process is suspended. The scheduler loop branches on this (a
/// cycle-limited process is never re-stepped); the human-readable text
/// is rendered lazily, only for hang reports.
enum class BlockReason : std::uint8_t {
  kNone,
  kStreamEmpty,          // stream_read on an empty FIFO
  kStreamFull,           // stream_write on a full FIFO
  kCycleLimit,           // local clock passed SimOptions::max_cycles
  kCycleLimitPipelined,  // ditto, inside a pipelined loop
  kTrap,                 // entered a block it can never leave (sim::mark_traps)
};

/// How a hang was diagnosed. A deadlock cycle and starvation are both
/// *proven* the moment no process can step (O(cycles-to-block)), and so
/// is a livelock whose process entered a trap block (proofs run only
/// while faults are armed); the cycle limit is only the backstop for
/// processes that never stop making local progress.
enum class HangKind : std::uint8_t {
  kDeadlockCycle,  // circular wait over stream empty/full edges
  kStarvation,     // blocked on a peer that finished / CPU data that never came
  kCycleLimit,     // SimOptions::max_cycles backstop (livelock)
  kLivelock,       // a process is trapped in a block it can never leave
};

/// One stuck process in a hang diagnosis.
struct HangWaiter {
  std::string process;
  BlockReason reason = BlockReason::kNone;
  std::string stream;  // blocked stream's name (kStream* reasons only)
  std::string block;   // the trap block's name (kTrap only)
  SourceLoc loc;
  std::uint64_t cycle = 0;
  /// The process this one waits on (the blocked stream's peer endpoint);
  /// empty when the peer is the CPU or already finished.
  std::string waits_on;
};

/// Structured hang diagnosis: every stuck process, plus -- when a
/// circular wait exists -- the proven cycle. This is what the paper's
/// §5.1 assert(0)/NABORT tracing had to reconstruct by hand.
struct HangInfo {
  HangKind kind = HangKind::kStarvation;
  std::vector<HangWaiter> waiters;
  /// Indices into `waiters` forming the deadlock cycle in wait order
  /// (cycle[i] waits on cycle[i+1], the last waits on the first). Empty
  /// unless kind == kDeadlockCycle.
  std::vector<std::size_t> cycle;

  /// Renders the report (the RunResult::hang_report text).
  [[nodiscard]] std::string render() const;
  /// The first trapped process's block when kind == kLivelock, else
  /// empty (trace::ReplayOptions::livelock_block).
  [[nodiscard]] std::string livelock_block() const;
};

struct RunResult {
  RunStatus status = RunStatus::kCompleted;
  std::uint64_t cycles = 0;  // max local clock over application processes
  std::vector<assertions::Failure> failures;
  std::string hang_report;  // rendered from `hang` when kHung
  std::optional<HangInfo> hang;
  /// Trace mode hit SimOptions::trace_limit: `trace()` holds a prefix
  /// of the run, not the whole run. Explicit so consumers never mistake
  /// a capped capture for a short one.
  bool trace_truncated = false;

  [[nodiscard]] bool completed() const { return status == RunStatus::kCompleted; }
};

/// The immutable half of a simulation (see the file comment). It borrows
/// the design and schedule; every Simulator built from it borrows it.
class Program {
 public:
  Program(const ir::Design& design, const sched::DesignSchedule& schedule);
  Program(const Program&) = delete;  // its op lookups point into itself

  [[nodiscard]] const ir::Design& design() const { return design_; }
  [[nodiscard]] const sched::DesignSchedule& schedule() const { return schedule_; }

 private:
  friend class Simulator;

  /// One application process. Every process has fault words, so one
  /// tape serves faulted and unfaulted runs on either engine.
  struct Proc {
    const ir::Process* proc = nullptr;
    const sched::ProcessSchedule* sched = nullptr;
    ProcLayout layout;
    Tape tape;
    TrapIndex traps;
    /// The state words with nothing armed (fixed words zero), and their
    /// block words with the trap marks mark_traps proves on them.
    std::vector<std::uint64_t> neutral;
    std::vector<std::uint64_t> neutral_traps;
  };

  /// A checker block: its tape, the registers each evaluation zeroes
  /// (inputs and block destinations; no other slot ever changes), and
  /// where its slot file starts in `checker_slots_`.
  struct Checker {
    Tape tape;
    std::vector<ir::RegId> touched;
    std::size_t base = 0;
  };

  /// What an assertion-carrying op resolves to: its record, plus (for
  /// kAssertTap) its checker, so a tap costs a single hash lookup.
  struct OpAssertInfo {
    const ir::AssertionRecord* rec = nullptr;
    const Checker* checker = nullptr;
  };

  const ir::Design& design_;
  const sched::DesignSchedule& schedule_;
  std::vector<Proc> procs_;  // application processes, in design order
  std::vector<Checker> checkers_;
  std::vector<std::uint64_t> checker_slots_;  // every checker's initial slots, end to end
  std::unordered_map<const ir::Op*, OpAssertInfo> op_assertions_;
  std::unordered_map<std::string_view, ir::StreamId> stream_ids_;  // into the design's names
  std::vector<std::vector<std::uint64_t>> memories_;  // initial u64 images, by MemId
  assertions::NotificationIndex notify_index_;
};

class Simulator {
 public:
  /// A run of `program`, which it borrows.
  Simulator(const Program& program, const ExternRegistry& externs, SimOptions options = {});
  /// A run of a private Program, for callers that simulate a design once.
  Simulator(const ir::Design& design, const sched::DesignSchedule& schedule,
            const ExternRegistry& externs, SimOptions options = {});

  /// Feeds CPU-producer data into the named stream. Values must fit the
  /// stream width: a harness bug that silently truncated its input would
  /// masquerade as a hardware fault, so it throws InternalError instead.
  void feed(std::string_view stream_name, const std::vector<std::uint64_t>& values);
  void feed(ir::StreamId stream, const std::vector<std::uint64_t>& values);

  /// Status-returning feed for callers driving untrusted input (the
  /// fuzz harness, the CLI): unknown stream / over-wide value comes
  /// back as kInvalidArgument instead of a thrown InternalError.
  [[nodiscard]] Status try_feed(std::string_view stream_name,
                                const std::vector<std::uint64_t>& values);

  /// Runs to completion / abort / hang.
  [[nodiscard]] RunResult run();

  /// Values received by the CPU on the named data stream (valid after run).
  [[nodiscard]] std::vector<std::uint64_t> received(std::string_view stream_name) const;

  /// Sink invoked on each assertion failure as it is decoded.
  void set_failure_sink(assertions::NotificationFunction::Sink sink) {
    notify_.set_sink(std::move(sink));
  }

  /// Execution trace (only populated with SimOptions::trace).
  [[nodiscard]] const std::vector<TraceEvent>& trace() const { return trace_; }
  /// Renders the trace, one event per line.
  [[nodiscard]] std::string render_trace(const SourceManager* sm = nullptr) const;

  /// True when at least one process runs through a compiled function.
  [[nodiscard]] bool engine_active() const { return engine_active_; }
  /// Why a requested compiled engine fell back to the interpreter
  /// (empty when active or when the interpreter was requested). The
  /// fallback contract: a compiled request never fails the run -- it
  /// interprets and reports the reason here for the driver to log.
  [[nodiscard]] const std::string& engine_note() const { return engine_note_; }

 private:
  /// A word in flight (streams are at most 64 bits wide, and a word is
  /// masked to its stream's width).
  struct FifoEntry {
    std::uint64_t value = 0;
    std::uint64_t time = 0;
  };

  struct StreamState {
    std::deque<FifoEntry> fifo;
    std::vector<std::uint64_t> cpu_received;
    unsigned width = 0;  // cached ir::Stream::width
    unsigned depth = 0;  // cached ir::Stream::depth (writer backpressure)
    bool cpu_producer = false;
    bool cpu_consumer = false;
    /// kAssertFail/kAssertPacked into the CPU: a word sent here reaches
    /// the notification task at once, not at the sender's next yield.
    bool notifies = false;
    bool dirty = false;  // on the dirty-drain list (cpu_consumer only)
    /// An armed drop/dup/stuck fault targets it: only then do its
    /// writes pass FaultEngine::on_stream_write.
    bool faulted = false;
  };

  struct PipeCtx {
    const ir::LoopInfo* loop = nullptr;
    std::uint64_t iter = 0;
    std::uint64_t start_cycle = 0;
    // Resolved once on loop entry (advance_to_block).
    const sched::BlockSchedule* bs = nullptr;
  };

  struct ProcState {
    const ir::Process* proc = nullptr;
    const Program::Proc* def = nullptr;  // schedule, tape, layout, neutral words
    ir::BlockId cur = ir::kNoBlock;
    std::size_t op_idx = 0;
    std::uint64_t cycle = 0;             // local clock
    std::uint64_t block_entry_cycle = 0; // local clock at block entry
    std::optional<PipeCtx> pipe;
    /// Compiled engine (when non-null the interpreter never runs this
    /// process): the AOT function, which shares the u64 register file
    /// and the state words below (sim/compiled.h layout).
    CompiledProcFn cfn = nullptr;
    /// The register file, each value masked to its register's width,
    /// then the tape's immediates.
    std::vector<std::uint64_t> regs64;
    std::vector<std::uint64_t> st;       // fixed words, then fault words
    std::vector<std::uint64_t*> mems64;  // the memory table, into mem64_
    /// Local time of the last assert_cycles marker (timing assertions).
    std::uint64_t cycle_marker = 0;
    /// Profiler slot (metrics::Profiler::index_of), 0 when unarmed.
    std::size_t prof_idx = 0;
    bool done = false;
    bool blocked = false;
    SourceLoc blocked_at;
    BlockReason block_reason = BlockReason::kNone;
    ir::StreamId blocked_stream = ir::kNoStream;  // for the kStream* reasons

    [[nodiscard]] bool cycle_limited() const {
      return blocked && (block_reason == BlockReason::kCycleLimit ||
                         block_reason == BlockReason::kCycleLimitPipelined);
    }
    [[nodiscard]] bool trapped() const { return blocked && block_reason == BlockReason::kTrap; }
  };

  std::unique_ptr<const Program> own_program_;  // the design/schedule constructor's
  const Program& prog_;
  const ir::Design& design_;
  const ExternRegistry& externs_;
  SimOptions opt_;
  assertions::NotificationFunction notify_;

  std::vector<StreamState> streams_;
  std::vector<ProcState> procs_;
  bool halt_ = false;
  /// Last delivery slot used on the multiplexed physical CPU channel.
  std::uint64_t channel_busy_until_ = 0;
  /// Per-stream count of process-issued writes (fault injection only;
  /// left empty when the FaultEngine is, so no-fault runs pay nothing).
  std::vector<std::uint64_t> stream_write_seq_;
  /// Count of words delivered over the CPU channel (channel faults only).
  std::uint64_t channel_word_seq_ = 0;
  bool channel_faulted_ = false;  // a channel-corruption fault is armed
  std::vector<TraceEvent> trace_;

  std::vector<std::uint64_t> checker_slots_;  // this run's copy of the Program's
  /// CPU-consumer streams with undelivered words, drained in id order.
  std::vector<ir::StreamId> dirty_cpu_streams_;
  /// Reusable argument buffer (externs cannot nest).
  std::vector<BitVector> extern_args_;
  bool tracing_ = false;        // flips off once trace_limit is reached
  bool inject_faults_ = false;  // kHardware with a non-empty fault list
  trace::TraceEngine* ela_ = nullptr;  // cached opt_.ela
  metrics::Profiler* prof_ = nullptr;  // cached opt_.profile
  const Deadline* deadline_ = nullptr;  // cached opt_.deadline
  std::uint32_t deadline_poll_ = 0;     // counter-masked clock-read throttle
  bool deadline_hit_ = false;

  // ---- compiled engine (sim/compiled.h ABI) ----
  bool engine_active_ = false;
  std::string engine_note_;  // fallback reason when a compiled run interprets
  /// The u64 memory images (memories are at most 64 bits wide), one
  /// coherent memory for compiled code, tapes and checker evaluations.
  std::vector<std::vector<std::uint64_t>> mem64_;
  /// Set by a checker tape's failure send or wire (eval_checker).
  bool checker_failed_ = false;
  std::array<const void*, kCbCount> cb_table_{};

  /// Throttled deadline poll: reads the clock once per 256 calls.
  /// Sets deadline_hit_ + halt_ and returns true when expired.
  bool poll_deadline() {
    if ((++deadline_poll_ & 255u) != 0 || !deadline_->expired()) return false;
    deadline_hit_ = true;
    halt_ = true;
    return true;
  }

  [[nodiscard]] ir::StreamId stream_by_name(std::string_view name) const;
  /// Why `values` cannot feed `stream` (not CPU-fed, or too wide), or ok.
  [[nodiscard]] Status check_feed(ir::StreamId stream,
                                  const std::vector<std::uint64_t>& values) const;
  void init_state();

  /// Cached design_.find_assertion(op.assert_id) for assertion-carrying ops.
  [[nodiscard]] const ir::AssertionRecord* assertion_of(const ir::Op& op) const;
  /// Builds the structured hang diagnosis: every stuck process, the
  /// wait-for edges over BlockReason::kStreamEmpty/kStreamFull, and the
  /// proven deadlock cycle if one exists.
  [[nodiscard]] HangInfo diagnose_hang() const;

  /// Runs one process until it blocks, finishes or the design halts.
  /// Returns true if it made progress.
  bool step_process(ProcState& ps);
  /// Compiled-engine variant: one call into ps.cfn, then maps the
  /// returned action onto the interpreter's blocked/done bookkeeping.
  bool step_process_compiled(ProcState& ps);
  /// Attaches SimOptions::compiled if the engine can run this
  /// configuration; records the fallback reason otherwise.
  void init_engine();
  /// Sets a process's state words: the neutral words, then every armed
  /// fault in the order they were armed, then the trap marks.
  void arm_fault_words(ProcState& ps) const;
  /// Stops `ps` for good in trap block `b` (kBlockTrap), at its clock.
  static void trap(ProcState& ps, ir::BlockId b);
  /// Block `b`'s fault word (stuck branch, skip and trap flags).
  [[nodiscard]] static std::uint64_t block_word(const ProcState& ps, ir::BlockId b) {
    return ps.st[ps.def->layout.branch + b];
  }
  /// Callback surface for compiled code (cb_table_ slots). The generated
  /// function has already evaluated the op's predicate and timestamp.
  std::uint32_t compiled_exec_op(std::uint32_t pidx, std::uint32_t block, std::uint32_t op_idx,
                                 std::uint64_t at);
  static std::uint32_t cb_exec_trampoline(void* sim, std::uint32_t pidx, std::uint32_t block,
                                          std::uint32_t op, std::uint64_t at);
  static std::uint32_t cb_poll_trampoline(void* sim);
  /// Executes ops of a sequential block starting at ps.op_idx; returns
  /// false if blocked.
  bool run_sequential_block(ProcState& ps);
  bool run_pipelined_loop(ProcState& ps);
  void advance_to_block(ProcState& ps, ir::BlockId next);

  /// Runs tape entries [i, end) over slot file `s`, each at local time
  /// `base` + its state offset (`base` is re-read after every op that
  /// can stall); returns the first entry that did not complete (a
  /// blocked stream op), or `end`. `hooks` arms the trace and ELA hooks
  /// (false for checker evaluations, which report only a verdict).
  std::uint32_t run_tape(ProcState& ps, std::uint64_t* s, const Tape& t, std::uint32_t i,
                         std::uint32_t end, const std::uint64_t& base, bool hooks);
  /// A checker block's failure send or wire, or extern call (codes
  /// kCheckerSend and up), at the tap's time `at`.
  void exec_checker_op(std::uint64_t* s, const Tape& t, std::uint32_t i, std::uint64_t at);
  /// Executes a stream, extern or assertion op for either engine at
  /// local time `at`. Returns false if blocked on a stream (state
  /// untouched).
  bool exec_effect(ProcState& ps, const ir::Op& op, std::uint64_t at);
  void record_trace(const ProcState& ps, const ir::Op& op, std::uint64_t at);

  /// Operand `o` of process `p` read from slot file `s`: as a word, and
  /// as a value of the operand's width (for streams, externs and hooks).
  [[nodiscard]] static std::uint64_t word(const std::uint64_t* s, const ir::Operand& o) {
    return o.is_reg() ? s[o.reg] : o.imm.to_u64();
  }
  [[nodiscard]] static BitVector bits(const ir::Process& p, const std::uint64_t* s,
                                      const ir::Operand& o) {
    return o.is_reg() ? BitVector::from_u64(p.reg(o.reg).width, s[o.reg]) : o.imm;
  }

  bool try_stream_read(ProcState& ps, const ir::Op& op, std::uint64_t at);
  /// Sends `op`'s word for either engine, stream faults applied; false
  /// (and `ps` marked blocked) when the FIFO is full.
  bool try_stream_write(ProcState& ps, const ir::Op& op, std::uint64_t at);
  /// Queues `value` (masked to the stream's width) on stream `id`,
  /// arriving at `at`.
  void push_stream(ir::StreamId id, std::uint64_t value, std::uint64_t at);
  /// `v` as a value of stream `id`'s width (fault and ELA hooks).
  [[nodiscard]] BitVector stream_bits(ir::StreamId id, std::uint64_t v) const {
    return BitVector::from_u64(streams_[id].width, v);
  }
  /// Flags a CPU-bound stream for the next drain_cpu_streams() pass; an
  /// assertion-failure stream drains at once (see drain_cpu_streams).
  void mark_cpu_dirty(ir::StreamId id);

  /// Evaluates rec's checker `c`, wiring the tap op's operand values
  /// (read from `ps`) into the checker input registers.
  void eval_checker(const ir::AssertionRecord& rec, const Program::Checker& c, ProcState& ps,
                    const ir::Op& tap, std::uint64_t at);
  void fail_wire(const ir::AssertionRecord* rec, std::uint64_t at);
  /// Delivers every queued CPU-bound word over the multiplexed channel,
  /// stream by stream in id order, and feeds assertion words to the
  /// notification task (which may set halt_). Runs whenever a process
  /// yields, and from mark_cpu_dirty the moment an assertion-failure
  /// word is sent: a process that never yields (it only writes CPU
  /// streams, which never fill) would otherwise hold its failure until
  /// it finished or hit the cycle backstop. Data words are not drained
  /// per write: they wait for the yield, which keeps the channel order
  /// that `corrupt CPU channel word N` faults count on.
  void drain_cpu_streams();

  [[nodiscard]] const ExternRegistry::Fn* extern_fn(const std::string& name) const;
};

/// Convenience: schedule + simulate in one call.
[[nodiscard]] RunResult simulate(const ir::Design& design, const ExternRegistry& externs,
                                 const std::map<std::string, std::vector<std::uint64_t>>& feeds,
                                 SimOptions options = {});

}  // namespace hlsav::sim
