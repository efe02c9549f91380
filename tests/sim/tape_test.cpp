// The interpreter's op tape against the BitVector reference: every tape
// opcode, decoded from a reg or pooled-immediate operand, must compute
// what ir::eval_bin / ir::eval_un / BitVector::resize compute, at every
// width class the u64 slot file holds.
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "ir/ir.h"
#include "sim/tape.h"

namespace hlsav::sim {
namespace {

using ir::BinKind;
using ir::Op;
using ir::OpKind;
using ir::Operand;

constexpr unsigned kWidths[] = {1, 2, 7, 8, 31, 32, 33, 63, 64};
constexpr std::uint32_t kLine = 7;

std::uint64_t mask_of(unsigned w) {
  return w >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << w) - 1;
}

/// One process with registers made on demand, one set per width.
struct Rig {
  ir::Design design;
  ir::Process* p = &design.add_process("p");
  std::map<std::pair<unsigned, int>, ir::RegId> regs;

  ir::RegId reg(unsigned w, int role) {
    auto [it, fresh] = regs.emplace(std::make_pair(w, role), 0);
    if (fresh) {
      it->second = p->add_reg("r" + std::to_string(w) + "_" + std::to_string(role), w, false);
    }
    return it->second;
  }
};

/// Operands a and b as registers or immediates.
enum class Mode { kRegReg, kImmReg, kRegImm, kImmImm };
constexpr Mode kModes[] = {Mode::kRegReg, Mode::kImmReg, Mode::kRegImm, Mode::kImmImm};

/// Edge values at width w, then seeded random ones.
std::vector<std::uint64_t> values(unsigned w, std::mt19937_64& rng) {
  const std::uint64_t m = mask_of(w);
  std::vector<std::uint64_t> v = {0, 1, std::uint64_t{1} << (w - 1), m, m >> 1};
  for (int i = 0; i < 12; ++i) v.push_back(rng() & m);
  for (std::uint64_t& x : v) x &= m;
  return v;
}

/// Decodes `op` on a fresh tape and evaluates its single entry with
/// registers `a_reg`/`b_reg` holding `a`/`b` and state words `st`.
std::uint64_t run(Rig& rig, const Op& op, ir::RegId a_reg, std::uint64_t a, ir::RegId b_reg,
                  std::uint64_t b, const ProcLayout* layout = nullptr,
                  const std::uint64_t* st = nullptr) {
  TapeBuilder tb(rig.design, *rig.p, layout);
  tb.append(op, 0);
  const Tape& t = tb.tape();
  EXPECT_EQ(t.ops.size(), 1u);
  EXPECT_LT(t.ops[0].code, TapeCode::kLoad);
  std::vector<std::uint64_t> s = t.slots;
  if (a_reg != ir::kNoReg) s[a_reg] = a;
  if (b_reg != ir::kNoReg) s[b_reg] = b;
  return eval_pure(t.ops[0], s.data(), st);
}

Op bin_op(BinKind k, Operand a, Operand b, ir::RegId dest) {
  Op op;
  op.kind = OpKind::kBin;
  op.bin = k;
  op.args = {std::move(a), std::move(b)};
  op.dest = dest;
  op.loc.line = kLine;
  return op;
}

/// An operand holding `v`: register `r`, or an immediate of width w.
Operand operand(bool imm, ir::RegId r, unsigned w, std::uint64_t v) {
  return imm ? Operand::make_imm(BitVector::from_u64(w, v)) : Operand::make_reg(r);
}

void check_bin(Rig& rig, BinKind k, unsigned w, unsigned bw, std::uint64_t a, std::uint64_t b) {
  const BitVector expect = ir::eval_bin(k, BitVector::from_u64(w, a), BitVector::from_u64(bw, b));
  const ir::RegId dest = rig.reg(ir::bin_result_width(k, w), 2);
  for (Mode mode : kModes) {
    const bool ai = mode == Mode::kImmReg || mode == Mode::kImmImm;
    const bool bi = mode == Mode::kRegImm || mode == Mode::kImmImm;
    const ir::RegId ra = rig.reg(w, 0);
    const ir::RegId rb = rig.reg(bw, 1);
    Op op = bin_op(k, operand(ai, ra, w, a), operand(bi, rb, bw, b), dest);
    EXPECT_EQ(run(rig, op, ai ? ir::kNoReg : ra, a, bi ? ir::kNoReg : rb, b), expect.to_u64())
        << ir::bin_traits(k).name << " w=" << w << " bw=" << bw << " a=" << a << " b=" << b
        << " mode=" << static_cast<int>(mode);
  }
}

TEST(Tape, EveryBinaryOpMatchesEvalBin) {
  std::mt19937_64 rng(20231);
  Rig rig;
  for (std::size_t ki = 0; ki < ir::kNumBinKinds; ++ki) {
    const auto k = static_cast<BinKind>(ki);
    for (unsigned w : kWidths) {
      const std::vector<std::uint64_t> vs = values(w, rng);
      for (std::uint64_t a : vs) {
        for (std::uint64_t b : vs) check_bin(rig, k, w, w, a, b);
      }
    }
  }
}

TEST(Tape, ShiftAmountsAtAndPastTheWidth) {
  std::mt19937_64 rng(77);
  Rig rig;
  for (BinKind k : {BinKind::kShl, BinKind::kShrL, BinKind::kShrA}) {
    for (unsigned w : kWidths) {
      for (std::uint64_t a : values(w, rng)) {
        // An 8-bit and a 64-bit amount register: amounts up to and past
        // the width, and past 256 (BitVector's saturation point).
        for (std::uint64_t sh : {0u, 1u, w - 1, w, w + 1, 63u, 64u, 65u, 200u, 255u}) {
          check_bin(rig, k, w, 8, a, sh & 0xff);
        }
        for (std::uint64_t sh : {std::uint64_t{256}, std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
          check_bin(rig, k, w, 64, a, sh);
        }
      }
    }
  }
}

TEST(Tape, UnaryOpsMatchEvalUn) {
  std::mt19937_64 rng(5);
  Rig rig;
  for (ir::UnKind k : {ir::UnKind::kNeg, ir::UnKind::kNot}) {
    for (unsigned w : kWidths) {
      for (std::uint64_t a : values(w, rng)) {
        for (bool imm : {false, true}) {
          Op op;
          op.kind = OpKind::kUn;
          op.un = k;
          op.args = {operand(imm, rig.reg(w, 0), w, a)};
          op.dest = rig.reg(w, 2);
          const std::uint64_t expect = ir::eval_un(k, BitVector::from_u64(w, a)).to_u64();
          EXPECT_EQ(run(rig, op, imm ? ir::kNoReg : rig.reg(w, 0), a, ir::kNoReg, 0), expect)
              << "w=" << w << " a=" << a;
        }
      }
    }
  }
}

TEST(Tape, ResizesAndCopiesMatchBitVector) {
  std::mt19937_64 rng(9);
  Rig rig;
  for (ir::ResizeKind k : {ir::ResizeKind::kZext, ir::ResizeKind::kSext, ir::ResizeKind::kTrunc}) {
    for (unsigned sw : kWidths) {
      for (unsigned dw : kWidths) {
        for (std::uint64_t a : values(sw, rng)) {
          for (bool imm : {false, true}) {
            Op op;
            op.kind = OpKind::kResize;
            op.resize = k;
            op.args = {operand(imm, rig.reg(sw, 0), sw, a)};
            op.dest = rig.reg(dw, 2);
            const std::uint64_t expect =
                BitVector::from_u64(sw, a).resize(dw, k == ir::ResizeKind::kSext).to_u64();
            EXPECT_EQ(run(rig, op, imm ? ir::kNoReg : rig.reg(sw, 0), a, ir::kNoReg, 0), expect)
                << "kind=" << static_cast<int>(k) << " sw=" << sw << " dw=" << dw << " a=" << a;
          }
        }
      }
      for (std::uint64_t a : values(sw, rng)) {
        Op op;
        op.kind = OpKind::kCopy;
        op.args = {Operand::make_reg(rig.reg(sw, 0))};
        op.dest = rig.reg(sw, 2);
        EXPECT_EQ(run(rig, op, rig.reg(sw, 0), a, ir::kNoReg, 0), a);
      }
    }
  }
}

/// The narrowed-compare rule the BitVector interpreter applied: under a
/// mask narrower than the operands, both truncate to its popcount and a
/// signed compare turns unsigned.
std::uint64_t narrowed_reference(BinKind k, unsigned w, std::uint64_t a, std::uint64_t b,
                                 std::uint64_t mask) {
  BitVector va = BitVector::from_u64(w, a);
  BitVector vb = BitVector::from_u64(w, b);
  const auto nw = static_cast<unsigned>(std::popcount(mask));
  if (mask != ~std::uint64_t{0} && nw < w) {
    if (k == BinKind::kCmpLtS) k = BinKind::kCmpLtU;
    if (k == BinKind::kCmpLeS) k = BinKind::kCmpLeU;
    return ir::eval_bin(k, va.trunc(nw), vb.trunc(nw)).to_u64();
  }
  return ir::eval_bin(k, va, vb).to_u64();
}

TEST(Tape, NarrowedComparesMatchTheTruncateAndUnsignRule) {
  std::mt19937_64 rng(31);
  Rig rig;
  for (unsigned w : kWidths) {
    // A compare on kLine makes that line's compare word exist.
    Op probe = bin_op(BinKind::kCmpEq, Operand::make_reg(rig.reg(w, 0)),
                      Operand::make_reg(rig.reg(w, 1)), rig.reg(1, 2));
    rig.p->blocks.clear();
    rig.p->block(rig.p->add_block("b")).ops.push_back(probe);
    const ProcLayout layout = ProcLayout::of(*rig.p);
    const std::uint32_t word = layout.compare_word(kLine);
    ASSERT_NE(word, 0u);
    std::vector<std::uint64_t> st(layout.words, 0);
    const std::vector<std::uint64_t> vs = values(w, rng);
    for (unsigned nw : {1u, 2u, 5u, 8u, 31u, 32u, 33u, 63u, 64u}) {
      st[word] = mask_of(nw);
      for (BinKind k : {BinKind::kCmpEq, BinKind::kCmpNe, BinKind::kCmpLtU, BinKind::kCmpLtS,
                        BinKind::kCmpLeU, BinKind::kCmpLeS}) {
        for (std::uint64_t a : vs) {
          for (std::uint64_t b : vs) {
            for (bool imm : {false, true}) {
              Op op = bin_op(k, Operand::make_reg(rig.reg(w, 0)),
                             operand(imm, rig.reg(w, 1), w, b), rig.reg(1, 2));
              EXPECT_EQ(run(rig, op, rig.reg(w, 0), a, imm ? ir::kNoReg : rig.reg(w, 1), b,
                            &layout, st.data()),
                        narrowed_reference(k, w, a, b, st[word]))
                  << ir::bin_traits(k).name << " w=" << w << " narrowed to " << nw
                  << " a=" << a << " b=" << b;
            }
          }
        }
      }
    }
  }
}

TEST(Tape, ImmediatesPoolIntoOneSlotEach) {
  Rig rig;
  const ir::RegId r = rig.reg(32, 0);
  const ir::RegId d = rig.reg(32, 2);
  TapeBuilder tb(rig.design, *rig.p, nullptr);
  const Operand five = Operand::make_imm(BitVector::from_u64(32, 5));
  Op add = bin_op(BinKind::kAdd, Operand::make_reg(r), five, d);
  Op sub = bin_op(BinKind::kSub, five, Operand::make_reg(r), d);
  tb.append(add, 0);
  tb.append(sub, 3);
  const Tape& t = tb.tape();
  ASSERT_EQ(t.ops.size(), 2u);
  EXPECT_EQ(t.ops[0].b, t.ops[1].a);  // one slot for the shared 5
  EXPECT_EQ(t.slots.size(), rig.p->regs.size() + 1);
  EXPECT_EQ(t.slots[t.ops[0].b], 5u);
  EXPECT_EQ(t.ops[1].state, 3u);
}

TEST(Tape, DecoderRejectsOperandsWiderThan64Bits) {
  // ir::verify rejects such registers; an IR mutated after it must fail
  // loudly at decode instead of computing truncated values. (No immediate
  // can be wider: BitVector itself stops at kMaxWidth.)
  Rig rig;
  const ir::RegId wide = rig.p->add_reg("wide", BitVector::kMaxWidth + 1, false);
  Op op;
  op.kind = OpKind::kCopy;
  op.args = {Operand::make_reg(wide)};
  op.dest = rig.reg(64, 2);
  TapeBuilder tb(rig.design, *rig.p, nullptr);
  EXPECT_THROW(tb.append(op, 0), InternalError);
  // The destination check reads the same limit.
  op.args = {Operand::make_reg(rig.reg(64, 1))};
  op.dest = wide;
  EXPECT_THROW(tb.append(op, 0), InternalError);
}

}  // namespace
}  // namespace hlsav::sim
