// Typed intermediate representation of an HLS design.
//
// A Design is a task graph (Fig. 1 of the paper): hardware Processes
// connected by Streams, plus block-RAM Memories owned by processes and a
// catalogue of assertions. Each process body is a CFG of BasicBlocks
// whose operations read/write a process-local register file, access
// memories through ports, and perform blocking stream I/O.
//
// The representation is deliberately register-based rather than SSA:
// virtual registers map 1:1 onto hardware registers, which keeps the
// scheduler's resource accounting and the area model direct.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "support/bitvector.h"
#include "support/diagnostics.h"
#include "support/source_manager.h"

namespace hlsav::ir {

using RegId = std::uint32_t;
using BlockId = std::uint32_t;
using MemId = std::uint32_t;
using StreamId = std::uint32_t;

inline constexpr RegId kNoReg = std::numeric_limits<RegId>::max();
inline constexpr BlockId kNoBlock = std::numeric_limits<BlockId>::max();
inline constexpr MemId kNoMem = std::numeric_limits<MemId>::max();
inline constexpr StreamId kNoStream = std::numeric_limits<StreamId>::max();

// ------------------------------------------------------------ Operands --

enum class OperandKind : std::uint8_t { kNone, kReg, kImm };

/// An op input: a virtual register or an immediate.
struct Operand {
  OperandKind kind = OperandKind::kNone;
  RegId reg = kNoReg;
  BitVector imm{1};

  static Operand none() { return {}; }
  static Operand make_reg(RegId r) {
    Operand o;
    o.kind = OperandKind::kReg;
    o.reg = r;
    return o;
  }
  static Operand make_imm(BitVector v) {
    Operand o;
    o.kind = OperandKind::kImm;
    o.imm = std::move(v);
    return o;
  }

  [[nodiscard]] bool is_reg() const { return kind == OperandKind::kReg; }
  [[nodiscard]] bool is_imm() const { return kind == OperandKind::kImm; }
  [[nodiscard]] bool is_none() const { return kind == OperandKind::kNone; }
};

// ----------------------------------------------------------------- Ops --

enum class BinKind : std::uint8_t {
  kAdd, kSub, kMul, kDivU, kDivS, kRemU, kRemS,
  kAnd, kOr, kXor, kShl, kShrL, kShrA,
  kCmpEq, kCmpNe, kCmpLtU, kCmpLtS, kCmpLeU, kCmpLeS,
};

enum class UnKind : std::uint8_t { kNeg, kNot };

enum class ResizeKind : std::uint8_t { kZext, kSext, kTrunc };

enum class OpKind : std::uint8_t {
  kBin,          // dest = bin(args[0], args[1])
  kUn,           // dest = un(args[0])
  kResize,       // dest = resize(args[0])
  kCopy,         // dest = args[0] (same width)
  kLoad,         // dest = mem[args[0]]          (uses one memory port)
  kStore,        // mem[args[0]] = args[1]       (uses one memory port)
  kStreamRead,   // dest = pop(stream)           (blocking)
  kStreamWrite,  // push(stream, args[0])        (blocking)
  kCallExtern,   // dest = extern_fn(args...)
  kAssert,       // check args[0] != 0; synthesized away by assertion pass
  kAssertTap,    // zero-cost register tap feeding a checker process
  kAssertFailWire,  // zero-cost failure wire into a collector (args[0]=cond)
  kAssertCycles,    // timing assertion marker: elapsed cycles <= bound
};

inline constexpr std::uint32_t kNoAssertTag = std::numeric_limits<std::uint32_t>::max();

// -------------------------------------------------------- Kind traits --
//
// Every fact about an op kind lives in exactly one row of these tables:
// the printer, scheduler, optimizer, assertion synthesis, RTL/area model
// and code generator all read them instead of keeping their own switch.
// The rows are indexed by the enum; the static_asserts below reject a
// table that is missing a row or lists one out of order. A new kind is
// one new row here plus a case in each dispatch switch (every switch
// over OpKind is exhaustive, so -Wswitch names them all).

/// One past the last enumerator (keep in step with the enums above).
inline constexpr std::size_t kNumBinKinds = static_cast<std::size_t>(BinKind::kCmpLeS) + 1;
inline constexpr std::size_t kNumOpKinds = static_cast<std::size_t>(OpKind::kAssertCycles) + 1;

/// Area-model class of a binary operator (fpga::estimate_area).
enum class BinArea : std::uint8_t { kAddSub, kLogic, kShift, kMul, kDiv, kCmp };

struct BinTraits {
  BinKind kind;
  const char* name;     // IR mnemonic (print_design)
  const char* verilog;  // Verilog operator
  bool is_comparison;   // 1-bit result
  bool is_shift;        // the shift amount may be narrower than the value
  bool is_signed;       // two's-complement divide/compare ($signed operands)
  bool carry_chain;     // ripple-carry adder or magnitude comparator
  unsigned depth;       // chained combinational levels
  unsigned latency;     // registered cycles (0 = usable in the same state)
  BinArea area;
};

struct OpTraits {
  OpKind kind;
  const char* name;  // IR mnemonic (print_design, traces, schedules)
  bool has_dest;     // writes `dest`
  bool side_effect;  // observable beyond its dest: never dead code
  /// Zero-cost assertion wire: takes no state, resource or delay in the
  /// schedule (assertion synthesis lowers it to taps and wires).
  bool zero_cost;
  bool wiring;       // synthesizes to wires only (no LUTs, no FU)
  bool callback;     // compiled code calls back into the simulator
  unsigned depth;    // chained combinational levels (kBin: per BinKind)
  unsigned latency;  // registered cycles (kBin: per BinKind)
};

// Columns: hdl = verilog, dp = depth, lt = latency. Dividers iterate:
// 4 cycles before the quotient is registered.
inline constexpr BinTraits kBinTraits[] = {
    // kind            name      hdl    cmp    shift  signed carry  dp lt area
    {BinKind::kAdd,    "add",    "+",   false, false, false, true,  1, 0, BinArea::kAddSub},
    {BinKind::kSub,    "sub",    "-",   false, false, false, true,  1, 0, BinArea::kAddSub},
    {BinKind::kMul,    "mul",    "*",   false, false, false, false, 3, 0, BinArea::kMul},
    {BinKind::kDivU,   "divu",   "/",   false, false, false, false, 4, 4, BinArea::kDiv},
    {BinKind::kDivS,   "divs",   "/",   false, false, true,  false, 4, 4, BinArea::kDiv},
    {BinKind::kRemU,   "remu",   "%",   false, false, false, false, 4, 4, BinArea::kDiv},
    {BinKind::kRemS,   "rems",   "%",   false, false, true,  false, 4, 4, BinArea::kDiv},
    {BinKind::kAnd,    "and",    "&",   false, false, false, false, 1, 0, BinArea::kLogic},
    {BinKind::kOr,     "or",     "|",   false, false, false, false, 1, 0, BinArea::kLogic},
    {BinKind::kXor,    "xor",    "^",   false, false, false, false, 1, 0, BinArea::kLogic},
    {BinKind::kShl,    "shl",    "<<",  false, true,  false, false, 1, 0, BinArea::kShift},
    {BinKind::kShrL,   "shrl",   ">>",  false, true,  false, false, 1, 0, BinArea::kShift},
    {BinKind::kShrA,   "shra",   ">>>", false, true,  false, false, 1, 0, BinArea::kShift},
    {BinKind::kCmpEq,  "cmpeq",  "==",  true,  false, false, false, 1, 0, BinArea::kCmp},
    {BinKind::kCmpNe,  "cmpne",  "!=",  true,  false, false, false, 1, 0, BinArea::kCmp},
    {BinKind::kCmpLtU, "cmpltu", "<",   true,  false, false, true,  1, 0, BinArea::kCmp},
    {BinKind::kCmpLtS, "cmplts", "<",   true,  false, true,  true,  1, 0, BinArea::kCmp},
    {BinKind::kCmpLeU, "cmpleu", "<=",  true,  false, false, true,  1, 0, BinArea::kCmp},
    {BinKind::kCmpLeS, "cmples", "<=",  true,  false, true,  true,  1, 0, BinArea::kCmp},
};

// Columns: effect = side_effect, zero = zero_cost, callbk = callback,
// dp = depth, lt = latency. Latency 1 is a synchronous BRAM read, a
// registered FIFO pop or a registered external-core output. A stream
// read consumes a FIFO entry and an extern call is externally visible,
// so both have side effects.
inline constexpr OpTraits kOpTraits[] = {
    // kind                   name                dest   effect zero   wiring callbk dp lt
    {OpKind::kBin,            "bin",              true,  false, false, false, false, 1, 0},
    {OpKind::kUn,             "un",               true,  false, false, false, false, 1, 0},
    {OpKind::kResize,         "resize",           true,  false, false, true,  false, 0, 0},
    {OpKind::kCopy,           "copy",             true,  false, false, true,  false, 0, 0},
    {OpKind::kLoad,           "load",             true,  false, false, false, false, 1, 1},
    {OpKind::kStore,          "store",            false, true,  false, false, false, 1, 0},
    {OpKind::kStreamRead,     "stream_read",      true,  true,  false, false, true,  1, 1},
    {OpKind::kStreamWrite,    "stream_write",     false, true,  false, false, true,  1, 0},
    {OpKind::kCallExtern,     "call",             true,  true,  false, false, true,  1, 1},
    {OpKind::kAssert,         "assert",           false, true,  true,  true,  true,  0, 0},
    {OpKind::kAssertTap,      "assert_tap",       false, true,  true,  true,  true,  0, 0},
    {OpKind::kAssertFailWire, "assert_fail_wire", false, true,  true,  true,  true,  0, 0},
    {OpKind::kAssertCycles,   "assert_cycles",    false, true,  true,  true,  true,  0, 0},
};

template <typename Row, std::size_t N>
constexpr bool rows_in_enum_order(const Row (&rows)[N]) {
  for (std::size_t i = 0; i < N; ++i) {
    if (static_cast<std::size_t>(rows[i].kind) != i) return false;
  }
  return true;
}
static_assert(std::size(kBinTraits) == kNumBinKinds, "one kBinTraits row per BinKind");
static_assert(std::size(kOpTraits) == kNumOpKinds, "one kOpTraits row per OpKind");
static_assert(rows_in_enum_order(kBinTraits), "kBinTraits rows must follow BinKind order");
static_assert(rows_in_enum_order(kOpTraits), "kOpTraits rows must follow OpKind order");

[[nodiscard]] constexpr const BinTraits& bin_traits(BinKind k) {
  return kBinTraits[static_cast<std::size_t>(k)];
}
[[nodiscard]] constexpr const OpTraits& op_traits(OpKind k) {
  return kOpTraits[static_cast<std::size_t>(k)];
}

/// Result width of a binary op given operand width w.
[[nodiscard]] constexpr unsigned bin_result_width(BinKind k, unsigned w) {
  return bin_traits(k).is_comparison ? 1 : w;
}

/// One primitive operation. `pred`, when set, predicates execution on the
/// register being non-zero (used for if-converted bodies of pipelined
/// loops, notably the failure-send of unoptimized in-circuit assertions).
struct Op {
  OpKind kind = OpKind::kCopy;
  SourceLoc loc;
  RegId dest = kNoReg;
  std::vector<Operand> args;
  Operand pred = Operand::none();
  bool pred_negated = false;  // execute when pred == 0 instead

  BinKind bin = BinKind::kAdd;
  UnKind un = UnKind::kNeg;
  ResizeKind resize = ResizeKind::kZext;
  MemId mem = kNoMem;
  StreamId stream = kNoStream;
  std::string callee;
  std::uint32_t assert_id = 0;

  /// kAssertCycles: the cycle budget since the previous marker.
  std::uint64_t cycle_bound = 0;

  /// Ops emitted while lowering an assert condition carry the assertion
  /// id here; the synthesis strategies relocate exactly this slice.
  std::uint32_t assert_tag = kNoAssertTag;
  /// Extraction ops (data fetches the application performs on behalf of
  /// a parallelized assertion) may merge into application states.
  bool is_extraction = false;

  [[nodiscard]] bool is_memory_access() const {
    return kind == OpKind::kLoad || kind == OpKind::kStore;
  }
  [[nodiscard]] bool is_stream_access() const {
    return kind == OpKind::kStreamRead || kind == OpKind::kStreamWrite;
  }
  /// Registered latency in cycles (0 = result usable in the same state).
  [[nodiscard]] unsigned latency() const {
    return kind == OpKind::kBin ? bin_traits(bin).latency : op_traits(kind).latency;
  }
  /// A comparison (1-bit result): the op narrow-compare faults target.
  [[nodiscard]] bool is_comparison() const {
    return kind == OpKind::kBin && bin_traits(bin).is_comparison;
  }
};

// ------------------------------------------------------------- Blocks --

enum class TermKind : std::uint8_t { kJump, kBranch, kReturn };

struct Terminator {
  TermKind kind = TermKind::kReturn;
  Operand cond = Operand::none();  // kBranch
  BlockId on_true = kNoBlock;      // kJump target / branch taken
  BlockId on_false = kNoBlock;     // branch not taken
};

struct BasicBlock {
  BlockId id = kNoBlock;
  std::string name;
  std::vector<Op> ops;
  Terminator term;
};

// ---------------------------------------------------- Loops & pipelines --

/// Canonical loop shape produced by lowering a `for` loop:
///   preheader -> header(cond test) -> body(straight line + step) -> header
///                                  \-> exit
/// Only loops with a single straight-line body block are eligible for
/// pipelining (`#pragma HLS pipeline`).
struct LoopInfo {
  BlockId header = kNoBlock;
  BlockId body = kNoBlock;
  BlockId exit = kNoBlock;
  bool pipelined = false;
  SourceLoc loc;
};

// ------------------------------------------------------------ Registers --

struct Register {
  RegId id = kNoReg;
  std::string name;
  unsigned width = 32;
  bool is_signed = false;
};

// ------------------------------------------------------------ Memories --

enum class MemRole : std::uint8_t {
  kData,     // ordinary application block RAM
  kRom,      // constant-initialized, read-only
  kReplica,  // assertion-read replica created by resource replication
};

/// A block RAM (or ROM). One usable port on the application side: the
/// other physical port of the dual-port RAM is owned by the platform
/// wrapper, which is why simultaneous application + assertion access
/// costs a cycle (paper §3.2). A replica adds a dedicated read port for
/// the assertion checker; its writes mirror the original's.
struct Memory {
  MemId id = kNoMem;
  std::string name;
  std::string owner_process;
  unsigned width = 32;
  bool is_signed = false;
  std::uint64_t size = 0;
  MemRole role = MemRole::kData;
  MemId replica_of = kNoMem;
  bool replicate_for_assertions = false;  // #pragma HLS replicate
  std::vector<BitVector> init;            // ROM contents / initial values
};

// -------------------------------------------------------------- Streams --

/// What a stream carries; drives the area model and the resource-sharing
/// optimization (assertion streams are the ones the paper packs 32-to-1).
enum class StreamRole : std::uint8_t {
  kData,          // application data
  kAssertFail,    // assertion failure ids, one 32-bit id per failure
  kAssertPacked,  // bit-packed failure flags (resource sharing, §4.2)
  kAssertData,    // operand values sent from app to a checker process
};

/// Endpoint naming: processes bind stream ports by name; kCpu endpoints
/// are produced/consumed by software tasks over the multiplexed channel.
struct StreamEndpoint {
  enum class Kind : std::uint8_t { kUnbound, kProcess, kCpu } kind = Kind::kUnbound;
  std::string process;  // for kProcess
  std::string port;     // formal parameter name inside the process
};

struct Stream {
  StreamId id = kNoStream;
  std::string name;
  unsigned width = 32;
  unsigned depth = 16;  // FIFO depth
  StreamRole role = StreamRole::kData;
  StreamEndpoint producer;
  StreamEndpoint consumer;
  /// Lowering binds every port to a fresh CPU-facing stream; rewiring a
  /// port to a process-to-process channel kills the placeholder. Dead
  /// streams are skipped by the verifier, simulator and area model.
  bool dead = false;
};

// ------------------------------------------------------------ Processes --

struct StreamPort {
  std::string name;
  bool is_input = true;
  unsigned width = 32;
  StreamId stream = kNoStream;  // bound channel
};

enum class ProcessRole : std::uint8_t {
  kApplication,
  kAssertChecker,    // generated by assertion parallelization (§3.1)
  kAssertCollector,  // generated by channel resource sharing (§4.2)
};

struct Process {
  std::string name;
  ProcessRole role = ProcessRole::kApplication;
  std::vector<StreamPort> ports;
  std::vector<Register> regs;
  std::vector<BasicBlock> blocks;
  std::vector<LoopInfo> loops;
  BlockId entry = kNoBlock;

  // ---- construction helpers ----
  RegId add_reg(std::string name, unsigned width, bool is_signed);
  BlockId add_block(std::string name);
  [[nodiscard]] BasicBlock& block(BlockId id);
  [[nodiscard]] const BasicBlock& block(BlockId id) const;
  [[nodiscard]] Register& reg(RegId id);
  [[nodiscard]] const Register& reg(RegId id) const;
  [[nodiscard]] const StreamPort* find_port(std::string_view name) const;
  StreamPort* find_port(std::string_view name);
  [[nodiscard]] unsigned operand_width(const Operand& o) const;
  /// The LoopInfo whose body block is `b`, if any.
  [[nodiscard]] const LoopInfo* loop_with_body(BlockId b) const;
};

// ---------------------------------------------------------- Assertions --

/// Assertion catalogue entry carried from sema into the design; the
/// synthesis strategy fills in how the failure is reported.
struct AssertionRecord {
  std::uint32_t id = 0;
  std::string process;       // process containing the assertion
  std::string function;      // HLS-C function name (for the message)
  std::string file;
  std::uint32_t line = 0;
  std::string condition_text;
  // Failure encoding, filled by the assertion synthesis pass:
  StreamId fail_stream = kNoStream;
  std::uint32_t fail_code = 0;  // id sent on kAssertFail streams
  std::uint32_t fail_bit = 0;   // bit index on kAssertPacked streams

  // Parallelized assertions (§3.1): the checker process evaluating this
  // condition, and the checker registers that receive the application's
  // register taps (same order as the kAssertTap op's args).
  std::string checker_process;
  std::vector<RegId> checker_inputs;
  /// Grouped checkers (§3.3 extension): the block inside the shared
  /// checker process that evaluates this assertion (kNoBlock = entry).
  BlockId checker_block = kNoBlock;

  [[nodiscard]] std::string failure_message() const;
};

// --------------------------------------------------------------- Design --

/// External HDL function: the paper's §5.1 second example. The C model
/// (used by software simulation) and the HDL behaviour (used in circuit)
/// may legitimately differ -- that divergence is what in-circuit
/// assertions catch. Bound at simulation time via sim::ExternRegistry.
struct ExternFunc {
  std::string name;
  unsigned result_width = 32;
  bool result_signed = false;
  std::vector<unsigned> param_widths;
};

struct Design {
  std::string name;
  std::vector<std::unique_ptr<Process>> processes;
  std::vector<Stream> streams;
  std::vector<Memory> memories;
  std::vector<ExternFunc> extern_funcs;
  std::vector<AssertionRecord> assertions;
  /// NABORT: keep running after an assertion failure (paper §4.1); used
  /// for hang tracing with assert(0) markers (§5.1).
  bool continue_on_failure = false;

  Process& add_process(std::string name);
  StreamId add_stream(std::string name, unsigned width, unsigned depth = 16,
                      StreamRole role = StreamRole::kData);
  MemId add_memory(std::string name, std::string owner, unsigned width, bool is_signed,
                   std::uint64_t size);

  [[nodiscard]] Process* find_process(std::string_view name);
  [[nodiscard]] const Process* find_process(std::string_view name) const;
  [[nodiscard]] Stream& stream(StreamId id);
  [[nodiscard]] const Stream& stream(StreamId id) const;
  [[nodiscard]] Memory& memory(MemId id);
  [[nodiscard]] const Memory& memory(MemId id) const;
  [[nodiscard]] const ExternFunc* find_extern(std::string_view name) const;
  [[nodiscard]] const AssertionRecord* find_assertion(std::uint32_t id) const;
  /// Ids of all non-dead streams, in id order (fault-site enumeration,
  /// output collection).
  [[nodiscard]] std::vector<StreamId> live_stream_ids() const;
  /// Application processes in declaration order (assertion-synthesis
  /// helpers skip checkers/collectors the same way).
  [[nodiscard]] std::vector<const Process*> application_processes() const;

  /// Binds a process port to a stream and records the endpoint.
  void connect_producer(StreamId s, std::string_view process, std::string_view port);
  void connect_consumer(StreamId s, std::string_view process, std::string_view port);
  void connect_cpu_producer(StreamId s);
  void connect_cpu_consumer(StreamId s);

  /// Deep copy (processes are owned by unique_ptr).
  [[nodiscard]] Design clone() const;
};

// ------------------------------------------------------------ Utilities --

/// Shift amounts saturate at 256 (any shift >= the operand width clears
/// or sign-fills anyway, and BitVector caps at 256 bits).
[[nodiscard]] inline unsigned shift_amount(const BitVector& b) {
  std::uint64_t v = b.to_u64();
  return v > 256 ? 256u : static_cast<unsigned>(v);
}

/// Evaluates a binary op on values (widths must match). Inline so
/// interpreter hot loops fold the dispatch and the small-width BitVector
/// fast paths into straight-line code instead of an indirect call.
[[nodiscard]] inline BitVector eval_bin(BinKind k, const BitVector& a, const BitVector& b) {
  switch (k) {
    case BinKind::kAdd: return a.add(b);
    case BinKind::kSub: return a.sub(b);
    case BinKind::kMul: return a.mul(b);
    case BinKind::kDivU: return a.udiv(b);
    case BinKind::kDivS: return a.sdiv(b);
    case BinKind::kRemU: return a.urem(b);
    case BinKind::kRemS: return a.srem(b);
    case BinKind::kAnd: return a.band(b);
    case BinKind::kOr: return a.bor(b);
    case BinKind::kXor: return a.bxor(b);
    case BinKind::kShl: return a.shl(shift_amount(b));
    case BinKind::kShrL: return a.lshr(shift_amount(b));
    case BinKind::kShrA: return a.ashr(shift_amount(b));
    case BinKind::kCmpEq: return BitVector::from_bool(a.eq(b));
    case BinKind::kCmpNe: return BitVector::from_bool(!a.eq(b));
    case BinKind::kCmpLtU: return BitVector::from_bool(a.ult(b));
    case BinKind::kCmpLtS: return BitVector::from_bool(a.slt(b));
    case BinKind::kCmpLeU: return BitVector::from_bool(a.ule(b));
    case BinKind::kCmpLeS: return BitVector::from_bool(a.sle(b));
  }
  HLSAV_UNREACHABLE("bad BinKind");
}

[[nodiscard]] inline BitVector eval_un(UnKind k, const BitVector& a) {
  switch (k) {
    case UnKind::kNeg: return a.neg();
    case UnKind::kNot: return a.bnot();
  }
  HLSAV_UNREACHABLE("bad UnKind");
}

/// Renders the whole design as human-readable text (tests, debugging).
[[nodiscard]] std::string print_design(const Design& design);
[[nodiscard]] std::string print_process(const Design& design, const Process& proc);

/// Structural validity check; throws InternalError with a description of
/// the first violation. Returns normally iff the design is well-formed.
void verify(const Design& design);

}  // namespace hlsav::ir
