// Fault injection engine (paper §5.1, generalized).
//
// The paper's in-circuit verification case studies hinge on real bugs
// that software simulation cannot see: a 64-bit comparison erroneously
// narrowed to 5 bits in the generated HDL, an external HDL core whose C
// simulation model diverges, and a hang traced with assert(0)/NABORT
// markers. We generalize that anecdotal fault set into an engine that
// can inject any of a catalogue of single faults into the cycle
// simulator, so a seeded campaign can sweep the whole space and measure
// how much of it the synthesized assertions actually detect:
//
//  * kNarrowCompare  -- a comparison evaluated at an erroneously
//    narrowed width (the paper's Fig. 3 translation fault).
//  * kStreamDrop/Dup/Stuck -- FIFO handshake faults: the nth word a
//    process writes to a stream is dropped, duplicated, or every word
//    from the nth on is replaced by a stuck data-bus value.
//  * kBramBitFlip/StuckAt -- a memory cell fault applied on write: one
//    bit of every word stored into the memory flips, or is stuck at a
//    level.
//  * kFsmStuckBranch/SkipBlock -- control faults: a block's branch
//    condition is stuck at taken/not-taken (a corrupted next-state
//    register), or a block's datapath ops are skipped entirely.
//  * kExternCorrupt  -- an external HDL core returning wrong results
//    (the §5.1-b divergence, as a bit-mask corruption).
//  * kChannelCorrupt -- the time-multiplexed CPU channel delivering a
//    corrupted word.
//
// Every fault is a FaultSpec; enumerate_fault_sites() derives the full
// deterministic site list from an ir::Design + sched::DesignSchedule so
// campaigns are reproducible by construction (sites depend only on the
// design, never on a seed). The faults that act inside a process (narrow
// compare, BRAM, FSM) are armed as the process's fault words
// (sim/compiled.h ProcLayout), which both simulation engines read; the
// rest act through the FaultEngine hooks below.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/ir.h"
#include "sched/schedule.h"
#include "support/bitvector.h"

namespace hlsav::sim {

enum class FaultKind : std::uint8_t {
  kNarrowCompare,
  kStreamDrop,
  kStreamDup,
  kStreamStuck,
  kBramBitFlip,
  kBramStuckAt,
  kFsmStuckBranch,
  kFsmSkipBlock,
  kExternCorrupt,
  kChannelCorrupt,
};

[[nodiscard]] const char* fault_kind_name(FaultKind k);

/// One injectable fault, fully parameterized. Doubles as the campaign's
/// site record: `id` is the stable index in enumerate_fault_sites()
/// order (kNoSite for hand-built specs).
struct FaultSpec {
  static constexpr std::uint32_t kNoSite = std::numeric_limits<std::uint32_t>::max();

  FaultKind kind = FaultKind::kNarrowCompare;
  std::uint32_t id = kNoSite;

  // kNarrowCompare / FSM faults: which process (kNarrowCompare: empty = any).
  std::string process;
  std::uint32_t line = 0;  // kNarrowCompare: source line (0 = any)
  unsigned width = 5;      // kNarrowCompare: narrowed width (0, or 64 and up: no fault)

  ir::StreamId stream = ir::kNoStream;  // stream faults
  std::uint64_t word_index = 0;         // stream faults / kChannelCorrupt: nth word
  std::uint64_t stuck_value = 0;        // kStreamStuck replacement payload

  ir::MemId mem = ir::kNoMem;  // BRAM faults
  unsigned bit = 0;            // BRAM faults / kChannelCorrupt: bit position
  bool stuck_one = false;      // kBramStuckAt level

  ir::BlockId block = ir::kNoBlock;  // FSM faults
  bool branch_taken = true;          // kFsmStuckBranch forced direction

  std::string callee;            // kExternCorrupt: extern function name
  std::uint64_t xor_mask = 1;    // kExternCorrupt corruption mask

  // ---- factories ----
  static FaultSpec narrow_compare(std::string process, std::uint32_t line, unsigned width);
  static FaultSpec stream_drop(ir::StreamId s, std::uint64_t word_index);
  static FaultSpec stream_dup(ir::StreamId s, std::uint64_t word_index);
  static FaultSpec stream_stuck(ir::StreamId s, std::uint64_t from_word, std::uint64_t value);
  static FaultSpec bram_bit_flip(ir::MemId m, unsigned bit);
  static FaultSpec bram_stuck_at(ir::MemId m, unsigned bit, bool level);
  static FaultSpec fsm_stuck_branch(std::string process, ir::BlockId block, bool taken);
  static FaultSpec fsm_skip_block(std::string process, ir::BlockId block);
  static FaultSpec extern_corrupt(std::string callee, std::uint64_t xor_mask);
  static FaultSpec channel_corrupt(std::uint64_t word_index, unsigned bit);

  /// One-line human-readable description ("s3: drop word 1 written to
  /// 'stage0.b'"), deterministic, used by site listings and reports.
  [[nodiscard]] std::string describe(const ir::Design& design) const;
};

/// The set of faults active in one simulation run (a campaign injects
/// exactly one; the engine supports any number, applied in the order
/// they were added). The hooks below are only reached when the simulator
/// already knows the engine is non-empty, so an empty engine costs a
/// single bool on the hot path.
class FaultEngine {
 public:
  FaultEngine() = default;

  void add(FaultSpec f) { faults_.push_back(std::move(f)); }
  void add_narrow_compare(std::string process, std::uint32_t line, unsigned width) {
    add(FaultSpec::narrow_compare(std::move(process), line, width));
  }

  [[nodiscard]] bool empty() const { return faults_.empty(); }
  [[nodiscard]] const std::vector<FaultSpec>& faults() const { return faults_; }

  /// Stream-write fault outcome. `value` may be replaced in place
  /// (kStreamStuck); the index is the 0-based count of words this
  /// process has written to the stream so far.
  enum class StreamAction : std::uint8_t { kPass, kDrop, kDup };
  [[nodiscard]] StreamAction on_stream_write(ir::StreamId s, std::uint64_t index,
                                             BitVector& value) const;

  /// Applies extern-HDL corruption to a call result.
  void on_extern_result(const std::string& callee, BitVector& value) const;

  /// Applies CPU-channel corruption to the nth delivered word.
  void on_channel_word(std::uint64_t index, BitVector& value) const;

 private:
  std::vector<FaultSpec> faults_;
};

/// Derives the complete, deterministic fault-site list of a design:
/// narrowable comparisons, process-written streams, writable BRAMs,
/// scheduled FSM blocks, extern functions and the CPU channel. The
/// schedule gates FSM sites to blocks that actually own FSM states.
/// Order (and therefore site ids) depends only on the design.
[[nodiscard]] std::vector<FaultSpec> enumerate_fault_sites(const ir::Design& design,
                                                           const sched::DesignSchedule& schedule);

}  // namespace hlsav::sim
