// The interpreter's op tape: each process the interpreter steps, and each
// checker block, decoded once at Simulator construction into a flat array
// of fixed-size entries over a u64 slot file.
//
// A slot file is the process's registers (ProcState::regs64, the same
// u64 register file compiled processes use), followed by the tape's
// pooled immediates, so every operand is a slot index. Register values
// are kept masked to their declared width; every width is at most 64
// bits (ir::verify rejects wider registers, memories and streams, and
// the decoder checks each operand it reads again).
//
// BinKind, UnKind and ResizeKind fold into one flat opcode, and the
// destination mask and the op's FSM-state offset are precomputed per
// entry, so a pure op is one switch on `code` and one masked store. The
// tape reads the same fault words as compiled code: a comparison on a
// line with a compare word ANDs both operands with it (a signed compare
// under a narrowing mask turns unsigned, as in hlsav_lts/hlsav_les), and
// a store passes the memory's AND/XOR pair. Block words are read by the
// simulator's block stepping, not by the tape.
//
// The arithmetic below replicates BitVector's single-word semantics
// (x/0 is all ones, x%0 is x, shifts by the width or more clear or
// sign-fill). tests/sim/tape_test.cpp pins every opcode against
// ir::eval_bin / eval_un / BitVector::resize; the code generator keeps
// its own C lowering, so the differential suites still compare two
// independent implementations of every op.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "ir/ir.h"
#include "sched/schedule.h"
#include "sim/compiled.h"

namespace hlsav::sim {

enum class TapeCode : std::uint8_t {
  // dest = f(s[a], s[b]), in BinKind order.
  kAdd, kSub, kMul, kDivU, kDivS, kRemU, kRemS,
  kAnd, kOr, kXor, kShl, kShrL, kShrA,
  kCmpEq, kCmpNe, kCmpLtU, kCmpLtS, kCmpLeU, kCmpLeS,
  // The comparisons again, both operands ANDed with the fault word st[k].
  kCmpEqM, kCmpNeM, kCmpLtUM, kCmpLtSM, kCmpLeUM, kCmpLeSM,
  kNeg, kNot,
  kCopy,   // dest = s[a]: a copy, a zero extension, a same-width resize
  kTrunc,  // dest = s[a] & mask
  kSext,   // dest = s[a] sign-extended from w bits, & mask
  // Codes from kLoad on leave the pure fast path.
  kLoad,    // dest = mem64[b][s[a]] & mask (0 out of range)
  kStore,   // mem64[dest][s[a]] = s[b], through fault words st[k], st[k+1] when k != 0
  kEffect,  // stream, extern and assertion ops: Simulator::exec_effect
  // Checker-block ops (eval_checker): the failure send and wire, an
  // extern call without extern faults, and ops a checker cannot hold.
  kCheckerSend,
  kCheckerFailWire,
  kCheckerExtern,
  kCheckerInvalid,
};

inline constexpr std::uint8_t kMaskedCompareOffset =
    static_cast<std::uint8_t>(TapeCode::kCmpEqM) - static_cast<std::uint8_t>(TapeCode::kCmpEq);
static_assert(static_cast<std::size_t>(TapeCode::kCmpLeS) + 1 == ir::kNumBinKinds,
              "the first tape codes follow BinKind");
static_assert(static_cast<std::uint8_t>(TapeCode::kCmpLeSM) ==
                  static_cast<std::uint8_t>(TapeCode::kCmpLeS) + kMaskedCompareOffset,
              "masked compares follow the compares");

/// When an op runs: always, or on its predicate slot being set or clear.
enum class TapePred : std::uint8_t { kAlways, kIfSet, kIfClear };

struct TapeOp {
  TapeCode code = TapeCode::kCopy;
  std::uint8_t w = 1;  // width of args[0] (the source width of kSext)
  TapePred pred = TapePred::kAlways;
  std::uint32_t state = 0;  // FSM-state offset from the block / iteration start
  std::uint32_t dest = 0;   // dest slot (kStore: the MemId)
  std::uint32_t a = 0;      // operand slots (kLoad: b is the MemId)
  std::uint32_t b = 0;
  std::uint32_t p = 0;  // predicate slot
  /// The dest mask; for a masked compare or a store, the index of its
  /// fault word in the state words (0: a store without fault words).
  std::uint64_t k = 0;
};
static_assert(sizeof(TapeOp) == 32, "two tape entries per cache line");

inline constexpr std::uint32_t kNoLoop = ~std::uint32_t{0};

/// One block's tape ranges and what stepping it needs besides its
/// terminator.
struct TapeBlock {
  std::uint32_t begin = 0;  // its ops, at their offsets in the block
  std::uint32_t end = 0;
  std::uint32_t pbegin = 0;  // a pipelined loop header's ops, at their
  std::uint32_t pend = 0;    // offsets in the loop iteration
  std::uint32_t cond = 0;    // slot of the branch condition (kBranch)
  std::uint32_t states = 0;  // FSM states a sequential run charges
  /// The pipelined loop (index into Process::loops) this block heads.
  std::uint32_t loop = kNoLoop;
};

struct Tape {
  const ir::Process* proc = nullptr;
  std::vector<TapeOp> ops;
  std::vector<const ir::Op*> src;  // the IR op behind each entry
  std::vector<TapeBlock> blocks;   // by BlockId (empty for a checker tape)
  /// The initial slot file: the registers at zero, then the pooled
  /// immediates (never written). Never empty, so slot 0 always exists.
  std::vector<std::uint64_t> slots;
};

/// Appends IR ops to a tape.
class TapeBuilder {
 public:
  /// `layout`: the process's fault words, or null when it has none
  /// (comparisons and stores then read no fault word).
  TapeBuilder(const ir::Design& design, const ir::Process& proc, const ProcLayout* layout);

  /// Appends `op`, issued `state` cycles after its block or iteration
  /// starts. A checker op ignores its predicate, except on the send.
  void append(const ir::Op& op, std::uint32_t state, bool checker = false);
  /// `o`'s slot: its register, or its pooled immediate.
  [[nodiscard]] std::uint32_t slot(const ir::Operand& o);
  [[nodiscard]] std::uint32_t size() const { return static_cast<std::uint32_t>(tape_.ops.size()); }
  [[nodiscard]] Tape& tape() { return tape_; }

 private:
  const ir::Design& design_;
  const ir::Process& proc_;
  const ProcLayout* layout_;
  Tape tape_;
  /// (value, slot) of each pooled immediate, sorted by value.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> imm_slots_;

  [[nodiscard]] unsigned width_of(const ir::Operand& o) const;
};

/// The tape of an interpreted process: every block's ops, and each
/// pipelined loop header's ops again at their iteration offsets.
[[nodiscard]] Tape decode_process(const ir::Design& design, const ir::Process& proc,
                                  const sched::ProcessSchedule& sched, const ProcLayout* layout);
/// The tape of a checker block (every op at offset 0).
[[nodiscard]] Tape decode_checker(const ir::Design& design, const ir::Process& proc,
                                  const ir::BasicBlock& block);

/// `v`, a w-bit value, sign-extended to 64 bits.
[[nodiscard]] inline std::int64_t tape_sx(std::uint64_t v, unsigned w) {
  return static_cast<std::int64_t>(v << (64u - w)) >> (64u - w);
}

/// Evaluates a pure op (code below kLoad) on slot file `s`, with the
/// process's state words `st` (read by the masked compares only).
[[nodiscard]] inline std::uint64_t eval_pure(const TapeOp& o, const std::uint64_t* s,
                                             const std::uint64_t* st) {
  const std::uint64_t a = s[o.a];
  const std::uint64_t b = s[o.b];
  const std::uint64_t m = o.k;
  const unsigned w = o.w;
  const std::uint64_t sign = std::uint64_t{1} << (w - 1);
  switch (o.code) {
    case TapeCode::kAdd: return (a + b) & m;
    case TapeCode::kSub: return (a - b) & m;
    case TapeCode::kMul: return (a * b) & m;
    case TapeCode::kDivU: return b == 0 ? m : a / b;
    case TapeCode::kDivS: {
      if (b == 0) return m;
      const bool na = (a & sign) != 0;
      const bool nb = (b & sign) != 0;
      const std::uint64_t q = (na ? (0 - a) & m : a) / (nb ? (0 - b) & m : b);
      return na != nb ? (0 - q) & m : q;
    }
    case TapeCode::kRemU: return b == 0 ? a : a % b;
    case TapeCode::kRemS: {
      if (b == 0) return a;
      const bool na = (a & sign) != 0;
      const std::uint64_t r = (na ? (0 - a) & m : a) % ((b & sign) != 0 ? (0 - b) & m : b);
      return na ? (0 - r) & m : r;
    }
    case TapeCode::kAnd: return a & b;
    case TapeCode::kOr: return a | b;
    case TapeCode::kXor: return a ^ b;
    case TapeCode::kShl: return b >= w ? 0 : (a << b) & m;
    case TapeCode::kShrL: return b >= w ? 0 : a >> b;
    case TapeCode::kShrA:
      // Past the width, the sign fills every bit.
      return static_cast<std::uint64_t>(tape_sx(a, w) >> (b < 63 ? b : 63)) & m;
    case TapeCode::kCmpEq: return a == b;
    case TapeCode::kCmpNe: return a != b;
    case TapeCode::kCmpLtU: return a < b;
    case TapeCode::kCmpLtS: return (a ^ sign) < (b ^ sign);
    case TapeCode::kCmpLeU: return a <= b;
    case TapeCode::kCmpLeS: return (a ^ sign) <= (b ^ sign);
    case TapeCode::kCmpEqM: return ((a ^ b) & st[m]) == 0;
    case TapeCode::kCmpNeM: return ((a ^ b) & st[m]) != 0;
    case TapeCode::kCmpLtUM: return (a & st[m]) < (b & st[m]);
    case TapeCode::kCmpLtSM: return ((a ^ sign) & st[m]) < ((b ^ sign) & st[m]);
    case TapeCode::kCmpLeUM: return (a & st[m]) <= (b & st[m]);
    case TapeCode::kCmpLeSM: return ((a ^ sign) & st[m]) <= ((b ^ sign) & st[m]);
    case TapeCode::kNeg: return (0 - a) & m;
    case TapeCode::kNot: return ~a & m;
    case TapeCode::kCopy: return a;
    case TapeCode::kTrunc: return a & m;
    case TapeCode::kSext: return static_cast<std::uint64_t>(tape_sx(a, w)) & m;
    case TapeCode::kLoad:
    case TapeCode::kStore:
    case TapeCode::kEffect:
    case TapeCode::kCheckerSend:
    case TapeCode::kCheckerFailWire:
    case TapeCode::kCheckerExtern:
    case TapeCode::kCheckerInvalid:
      break;
  }
  HLSAV_UNREACHABLE("eval_pure on an op with effects");
}

}  // namespace hlsav::sim
