// Cycle-attribution profiler for the FSMD simulator.
//
// Armed via SimOptions::profile (same borrowed-pointer pattern as
// SimOptions::ela: disabled cost is one pointer test per hook site, and
// no hook fires per op -- only at block/pipeline retire, stream stalls,
// and assertion evaluations, so the simulator's fast path stays on).
//
// Attribution taxonomy. Every local-clock cycle of every process lands
// in exactly one bucket:
//
//   compute      -- FSM states of retired sequential blocks that issue
//                   at least one application op (or no op at all:
//                   latency/chaining padding states), plus all cycles of
//                   pipelined-loop executions (latency + (n-1)*ii).
//   assertion    -- FSM states that issue *only* assertion machinery
//                   (inlined assert conditions, taps, fail wires, cycle
//                   markers -- extraction ops excluded, they merge into
//                   application states by the scheduler's own rule).
//                   Classified statically from the schedule, so the
//                   hot path just adds a precomputed per-block count.
//   stream-stall -- read-side stalls: the producer's FIFO timestamp was
//                   ahead of this process's clock, charged per channel.
//   tail         -- RunResult::cycles minus the process's final local
//                   clock: idle-after-finish, blocked-on-stream (the
//                   deadlock share, per channel and direction), cycle
//                   limit, or halted mid-block by an abort.
//
// The bookkeeping is exact, not sampled: stall cycles accumulate as
// *pending* and only commit when the enclosing block or pipeline
// retires -- by the simulator's timing algebra,
//     clock-at-entry + committed-stalls + retire-states == clock-at-retire
// holds for every retire, so per-process
//     compute + assertion + stall + tail == RunResult::cycles
// exactly, in every run mode (completed, NABORT, aborted, hung, fault
// injected). Stalls of a block that never retires (the process hung or
// the run halted mid-block) are *discarded* -- counted, reported, and
// provably zero for completed runs. Write-blocked processes lose no
// local-clock cycles in this timing model; write pressure shows up as
// blocked-poll counters and as the tail's blocked-write share instead.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/ir.h"
#include "metrics/metrics.h"
#include "sched/schedule.h"

namespace hlsav {
class SourceManager;
}

namespace hlsav::metrics {

/// Why a process's tail exists (its state at run end).
enum class EndKind : std::uint8_t {
  kFinished,      // returned; tail is idle-after-finish
  kBlockedRead,   // stuck in stream_read at run end (deadlock share)
  kBlockedWrite,  // stuck in stream_write at run end (deadlock share)
  kCycleLimit,    // livelock backstop fired
  kLivelock,      // entered a proven trap block (sim::mark_traps)
  kHalted,        // run aborted with this process mid-block
};

[[nodiscard]] const char* end_kind_name(EndKind k);

struct ProfileConfig {
  /// Record timeline spans/instants for the Chrome trace export.
  bool timeline = true;
  /// Span cap; further spans are counted as dropped, cycle accounting
  /// is unaffected.
  std::size_t timeline_limit = 1u << 20;
  /// Rows kept in the hottest-states table of the report.
  std::size_t max_hot_states = 16;
};

/// Compact per-run totals, cheap enough to keep for every campaign site
/// and diff against the golden run.
struct ProfileSummary {
  std::uint64_t run_cycles = 0;
  std::uint64_t compute_cycles = 0;
  std::uint64_t assert_cycles = 0;
  std::uint64_t stall_cycles = 0;
  std::uint64_t tail_cycles = 0;
  std::uint64_t discarded_stall_cycles = 0;
  std::uint64_t blocked_polls = 0;
  std::uint64_t assert_evals = 0;
  std::uint64_t assert_failures = 0;
  /// Channel with the most read-stall cycles ("" when no stalls).
  std::string hottest_stall_stream;
  std::uint64_t hottest_stall_cycles = 0;
};

/// Self-contained (all names resolved) profile of one simulation run.
struct ProfileReport {
  std::uint64_t run_cycles = 0;
  bool completed = false;

  struct StreamStall {
    std::string stream;
    std::uint64_t read_stall_cycles = 0;
    std::uint64_t read_stall_events = 0;
    std::uint64_t read_polls = 0;   // times found empty (scheduler retries)
    std::uint64_t write_polls = 0;  // times found full
  };

  struct ProcRow {
    std::string process;
    std::uint64_t compute_cycles = 0;
    std::uint64_t assert_cycles = 0;
    std::uint64_t stall_cycles = 0;  // committed read stalls
    std::uint64_t tail_cycles = 0;
    EndKind end = EndKind::kFinished;
    std::string end_stream;  // blocking channel for kBlockedRead/Write
    std::uint64_t discarded_stall_cycles = 0;
    /// Occupancy cross-check inputs: cycles of retired sequential
    /// states (Σ executions x num_states) and of pipelined executions.
    /// seq_state_cycles + pipe_cycles == compute + assertion, always.
    std::uint64_t seq_state_cycles = 0;
    std::uint64_t pipe_cycles = 0;
    std::vector<StreamStall> streams;  // stall/poll breakdown, by channel

    /// Every cycle this row accounts for; == run_cycles by the
    /// attribution invariant.
    [[nodiscard]] std::uint64_t attributed() const {
      return compute_cycles + assert_cycles + stall_cycles + tail_cycles;
    }
  };

  /// One FSM state (or pipeline stage) in the hottest-states table.
  struct StateRow {
    std::string process;
    std::string block;   // sanitized hierarchical block name
    unsigned state = 0;  // state index within the block
    std::uint64_t occupancy = 0;      // executions through this state
    std::uint64_t stall_cycles = 0;   // read stalls charged to it
    std::string source;               // "file:line" / "line N" / ""
    [[nodiscard]] std::uint64_t cost() const { return occupancy + stall_cycles; }
  };

  struct AssertStat {
    std::uint32_t id = 0;
    std::string label;  // "function:line 'condition'" when known
    std::uint64_t evals = 0;
    std::uint64_t failures = 0;
  };

  // Timeline (Chrome trace-event export; see metrics/chrometrace.h).
  struct Span {
    std::string process;
    bool stall = false;   // rendered on the process's stall track
    std::string name;     // block name / "stall 'stream'"
    std::uint64_t start = 0;
    std::uint64_t end = 0;
  };
  struct Instant {
    std::string process;
    std::string name;  // "assert #id FAIL"
    std::uint64_t cycle = 0;
  };

  std::vector<ProcRow> processes;
  std::vector<StateRow> hottest_states;  // by cost(), descending
  std::vector<AssertStat> assertions;    // evaluated assertions, by id
  std::vector<Span> spans;
  std::vector<Instant> instants;
  std::uint64_t spans_dropped = 0;
  // Snapshot of the profiler's metrics registry.
  std::vector<Counter> counters;
  std::vector<Histogram> histograms;

  /// True iff every process's attributed cycles equal run_cycles and
  /// (for completed runs) nothing was discarded.
  [[nodiscard]] bool attribution_exact() const;
  [[nodiscard]] ProfileSummary summary() const;
  /// Source-level tables: per-process attribution, hottest states,
  /// per-channel stalls, assertion activity.
  [[nodiscard]] std::string render_table() const;
  /// Whole report as a JSON object (embeddable in BENCH_*.json).
  [[nodiscard]] std::string to_json() const;
};

/// Renders a golden-vs-faulted summary delta ("cycles +128, stall +96
/// on 'chan', ..."), the campaign's per-site profile annotation.
[[nodiscard]] std::string render_profile_delta(const ProfileSummary& golden,
                                               const ProfileSummary& faulted);

class Profiler {
 public:
  /// `design` and `schedule` must outlive the profiler and be the exact
  /// objects the simulator runs (the static per-block state
  /// classification indexes the same BlockSchedules).
  Profiler(const ir::Design& design, const sched::DesignSchedule& schedule,
           ProfileConfig config = {});

  // ---- hook API (simulator side; hot, so index-addressed) ----

  /// Stable slot for a process; resolve once at simulator init.
  [[nodiscard]] std::size_t index_of(const ir::Process* proc) const;

  /// A sequential block retired: local clock advanced to `retire_cycle`.
  void block_retired(std::size_t idx, ir::BlockId block, std::uint64_t retire_cycle);
  /// A pipelined loop exited after `iters` iterations of `body`.
  void pipe_retired(std::size_t idx, ir::BlockId body, std::uint64_t retire_cycle,
                    std::uint64_t iters);
  /// A stream_read found data timestamped `cycles` ahead of local time
  /// `at` (state `state` of `block`); pending until the block retires.
  void read_stall(std::size_t idx, ir::BlockId block, unsigned state, ir::StreamId stream,
                  std::uint64_t at, std::uint64_t cycles);
  /// A stream op found the FIFO empty (read) / full (write) and the
  /// process suspended; counted per scheduler retry.
  void blocked_poll(std::size_t idx, ir::StreamId stream, bool write);
  /// An assertion evaluated (inline, checker, fail wire or cycle
  /// marker) with the given verdict.
  void assert_eval(std::size_t idx, std::uint32_t assert_id, bool failed, std::uint64_t at);
  /// Run teardown: the process's final local clock and end state.
  void process_end(std::size_t idx, std::uint64_t local_clock, EndKind end,
                   ir::StreamId blocked_stream);
  /// Run teardown, after every process_end.
  void run_end(std::uint64_t run_cycles, bool completed);

  // ---- reporting side ----

  [[nodiscard]] ProfileReport report(const SourceManager* sm = nullptr) const;
  [[nodiscard]] ProfileSummary summary() const;
  [[nodiscard]] const MetricsRegistry& registry() const { return registry_; }

 private:
  struct BlockStatic {
    unsigned num_states = 0;
    unsigned assert_states = 0;  // assertion-only states (sequential)
    bool pipelined = false;
    unsigned ii = 0;
    unsigned latency = 0;
    /// Unoptimized inline assertions have no assert op at runtime: the
    /// check is a branch whose false edge enters a failure block. Both
    /// are classified statically; retiring the branch block counts an
    /// evaluation, retiring the failure block counts a failure.
    std::uint32_t assert_branch = ir::kNoAssertTag;
    std::uint32_t assert_fail = ir::kNoAssertTag;
  };

  struct ProcAccum {
    const ir::Process* proc = nullptr;
    const BlockStatic* blocks = nullptr;  // into block_static_, by BlockId
    /// Shared op->state->source table (borrows the schedule's vectors).
    ir::ProcessDebugInfo dbg;
    std::uint64_t compute = 0;
    std::uint64_t assert_cycles = 0;
    std::uint64_t stall_committed = 0;
    std::uint64_t clock = 0;  // attributed local clock
    std::uint64_t seq_state_cycles = 0;
    std::uint64_t pipe_cycles = 0;
    std::uint64_t discarded = 0;
    // Pending read stalls of the not-yet-retired block, per channel
    // (tiny: a block rarely reads more than a few streams).
    std::vector<std::pair<ir::StreamId, std::uint64_t>> pending;
    std::uint64_t pending_total = 0;
    std::unordered_map<ir::StreamId, std::uint64_t> stall_by_stream;
    std::unordered_map<ir::StreamId, std::uint64_t> stall_events_by_stream;
    std::unordered_map<ir::StreamId, std::uint64_t> read_polls;
    std::unordered_map<ir::StreamId, std::uint64_t> write_polls;
    std::vector<std::uint64_t> block_execs;  // by BlockId
    /// (block << 16 | state) -> stall cycles charged to that state.
    std::unordered_map<std::uint64_t, std::uint64_t> stall_by_state;
    EndKind end = EndKind::kFinished;
    ir::StreamId end_stream = ir::kNoStream;
    std::uint64_t tail = 0;
  };

  struct AssertAccum {
    std::uint64_t evals = 0;
    std::uint64_t failures = 0;
  };

  void commit_pending(ProcAccum& a);
  void add_span(const ProcAccum& a, bool stall, std::string name, std::uint64_t start,
                std::uint64_t end);

  const ir::Design& design_;
  const sched::DesignSchedule& schedule_;
  ProfileConfig config_;
  std::vector<ProcAccum> procs_;
  std::unordered_map<const ir::Process*, std::size_t> index_;
  // Per-process per-block statics, laid out flat (procs_[i].blocks
  // points at its slice); stable because reserved up front.
  std::vector<BlockStatic> block_static_;
  std::unordered_map<std::uint32_t, AssertAccum> asserts_;
  std::vector<ProfileReport::Span> spans_;
  std::vector<ProfileReport::Instant> instants_;
  std::uint64_t spans_dropped_ = 0;
  std::uint64_t run_cycles_ = 0;
  bool completed_ = false;
  bool ended_ = false;

  MetricsRegistry registry_;
  // Hot-path counter/histogram handles, resolved once in the ctor.
  Counter* c_blocks_ = nullptr;
  Counter* c_pipes_ = nullptr;
  Counter* c_stall_cycles_ = nullptr;
  Counter* c_stall_events_ = nullptr;
  Counter* c_polls_read_ = nullptr;
  Counter* c_polls_write_ = nullptr;
  Counter* c_assert_evals_ = nullptr;
  Counter* c_assert_failures_ = nullptr;
  Counter* c_discarded_ = nullptr;
  Histogram* h_stall_ = nullptr;
  Histogram* h_pipe_iters_ = nullptr;
};

}  // namespace hlsav::metrics
