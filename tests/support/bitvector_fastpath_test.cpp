// Regression tests for the small-width (<= 64 bit) BitVector fast path.
//
// The fast path and the 4-word wide path must agree bit-exactly: every
// test here either pins behaviour at the width boundaries where the
// implementation switches representation (1, 63, 64, 65, 255, 256), or
// cross-checks a narrow operation against the same operation performed
// at a wide width on extended operands.
#include <gtest/gtest.h>

#include <cstdint>

#include "support/bitvector.h"

namespace hlsav {
namespace {

constexpr unsigned kBoundaryWidths[] = {1, 63, 64, 65, 255, 256};

std::uint64_t mask_for(unsigned w) {
  return w >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << w) - 1;
}

// Deterministic xorshift64* so the property tests are reproducible.
struct Rng {
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  std::uint64_t next() {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 0x2545f4914f6cdd1dull;
  }
};

TEST(BitVectorFastPath, MaskingInvariantAtBoundaryWidths) {
  for (unsigned w : kBoundaryWidths) {
    BitVector ones = BitVector::all_ones(w);
    // Adding 1 to all-ones must wrap to zero at every width; any excess
    // bit left set would surface here as a nonzero result.
    BitVector wrapped = ones.add(BitVector::from_u64(w, 1));
    EXPECT_TRUE(wrapped.is_zero()) << "width " << w;
    // Doubling all-ones shifts in a zero at the bottom: 0b111..10.
    BitVector doubled = ones.add(ones);
    EXPECT_FALSE(doubled.bit(0)) << "width " << w;
    if (w > 1) {
      EXPECT_TRUE(doubled.bit(w - 1)) << "width " << w;
    }
    // neg(1) is all-ones in two's complement.
    EXPECT_TRUE(BitVector::from_u64(w, 1).neg() == ones) << "width " << w;
  }
}

TEST(BitVectorFastPath, SignBitAtBoundaryWidths) {
  for (unsigned w : kBoundaryWidths) {
    BitVector top(w);
    top.set_bit(w - 1, true);
    EXPECT_TRUE(top.sign_bit()) << "width " << w;
    EXPECT_TRUE(top.to_i64() < 0 || w > 64) << "width " << w;
    EXPECT_FALSE(BitVector::all_ones(w).lshr(1).sign_bit()) << "width " << w;
    EXPECT_EQ(BitVector::from_i64(w, -1), BitVector::all_ones(w)) << "width " << w;
  }
}

TEST(BitVectorFastPath, DivRemByZeroContract) {
  for (unsigned w : kBoundaryWidths) {
    BitVector x = BitVector::from_u64(w, 0xdeadbeefcafef00dull);
    BitVector z(w);
    // Division by zero models the hardware divider's all-ones output;
    // remainder by zero passes the dividend through. Signed ops follow
    // the same contract.
    EXPECT_EQ(x.udiv(z), BitVector::all_ones(w)) << "width " << w;
    EXPECT_EQ(x.sdiv(z), BitVector::all_ones(w)) << "width " << w;
    EXPECT_EQ(x.urem(z), x) << "width " << w;
    EXPECT_EQ(x.srem(z), x) << "width " << w;
  }
}

TEST(BitVectorFastPath, SignedDivisionMinByMinusOneWraps) {
  // INT_MIN / -1 overflows in native C++; the hardware divider wraps to
  // INT_MIN. Exercise the widths where the fast path uses native 64-bit
  // arithmetic (63, 64) and one wide width.
  for (unsigned w : {63u, 64u, 65u}) {
    BitVector min(w);
    min.set_bit(w - 1, true);  // 100...0 = most negative value
    BitVector minus_one = BitVector::all_ones(w);
    EXPECT_EQ(min.sdiv(minus_one), min) << "width " << w;
    EXPECT_TRUE(min.srem(minus_one).is_zero()) << "width " << w;
  }
}

TEST(BitVectorFastPath, ShiftsAtAndBeyondWidth) {
  for (unsigned w : kBoundaryWidths) {
    BitVector ones = BitVector::all_ones(w);
    for (unsigned amount : {w, w + 1, 2 * w, 1000u}) {
      EXPECT_TRUE(ones.shl(amount).is_zero()) << "width " << w << " shl " << amount;
      EXPECT_TRUE(ones.lshr(amount).is_zero()) << "width " << w << " lshr " << amount;
      // ashr of a negative value saturates to all-ones, of a positive
      // value to zero.
      EXPECT_EQ(ones.ashr(amount), ones) << "width " << w << " ashr " << amount;
      EXPECT_TRUE(ones.lshr(1).ashr(amount).is_zero())
          << "width " << w << " ashr " << amount;
    }
    // One below the width keeps exactly the edge bit.
    if (w > 1) {
      EXPECT_EQ(BitVector::from_u64(w, 1).shl(w - 1).lshr(w - 1).to_u64(), 1u)
          << "width " << w;
    }
  }
}

TEST(BitVectorFastPath, UleSleAgreeWithUltEqAtBoundaries) {
  // ule/sle are single-pass implementations, not (ult || eq); pin the
  // equality and off-by-one boundary cases where a double-evaluation bug
  // would hide.
  for (unsigned w : kBoundaryWidths) {
    BitVector zero(w);
    BitVector one = BitVector::from_u64(w, 1);
    BitVector ones = BitVector::all_ones(w);  // unsigned max, signed -1
    BitVector min(w);
    min.set_bit(w - 1, true);  // signed minimum

    // Reflexive: x <= x, never x < x.
    for (const BitVector& x : {zero, one, ones, min}) {
      EXPECT_TRUE(x.ule(x)) << "width " << w;
      EXPECT_TRUE(x.sle(x)) << "width " << w;
      EXPECT_FALSE(x.ult(x)) << "width " << w;
      EXPECT_FALSE(x.slt(x)) << "width " << w;
    }
    // Unsigned ordering boundaries.
    EXPECT_TRUE(zero.ule(one)) << "width " << w;
    EXPECT_FALSE(one.ule(zero)) << "width " << w;
    EXPECT_TRUE(one.ule(ones)) << "width " << w;
    // Signed ordering: min < -1 < 0 < 1 (for w > 1; at w == 1 the only
    // values are 0 and -1).
    if (w > 1) {
      EXPECT_TRUE(min.sle(ones)) << "width " << w;
      EXPECT_TRUE(ones.sle(zero)) << "width " << w;
      EXPECT_TRUE(zero.sle(one)) << "width " << w;
      EXPECT_FALSE(one.sle(ones)) << "width " << w;
    } else {
      EXPECT_TRUE(ones.sle(zero));
      EXPECT_FALSE(zero.sle(ones));
    }
    // Consistency with the strict form everywhere we pinned.
    EXPECT_EQ(zero.ule(one), zero.ult(one) || zero.eq(one)) << "width " << w;
    EXPECT_EQ(ones.sle(zero), ones.slt(zero) || ones.eq(zero)) << "width " << w;
  }
}

// Property test: a narrow (fast path) operation must equal the same
// operation done on the wide path with the operands zero-/sign-extended
// to 128 bits and the result truncated back.
TEST(BitVectorFastPath, FastAndWidePathsAgreeOnRandomInputs) {
  Rng rng;
  constexpr unsigned kWide = 128;
  for (unsigned w : {1u, 7u, 32u, 63u, 64u}) {
    for (int iter = 0; iter < 200; ++iter) {
      std::uint64_t xa = rng.next() & mask_for(w);
      std::uint64_t xb = rng.next() & mask_for(w);
      BitVector a = BitVector::from_u64(w, xa);
      BitVector b = BitVector::from_u64(w, xb);
      BitVector wa = a.zext(kWide);
      BitVector wb = b.zext(kWide);
      BitVector sa = a.sext(kWide);
      BitVector sb = b.sext(kWide);

      EXPECT_EQ(a.add(b), wa.add(wb).trunc(w)) << "add w" << w;
      EXPECT_EQ(a.sub(b), wa.sub(wb).trunc(w)) << "sub w" << w;
      EXPECT_EQ(a.mul(b), wa.mul(wb).trunc(w)) << "mul w" << w;
      EXPECT_EQ(a.band(b), wa.band(wb).trunc(w)) << "and w" << w;
      EXPECT_EQ(a.bor(b), wa.bor(wb).trunc(w)) << "or w" << w;
      EXPECT_EQ(a.bxor(b), wa.bxor(wb).trunc(w)) << "xor w" << w;
      EXPECT_EQ(a.bnot(), wa.bnot().trunc(w)) << "not w" << w;
      EXPECT_EQ(a.neg(), sa.neg().trunc(w)) << "neg w" << w;
      if (xb != 0) {
        EXPECT_EQ(a.udiv(b), wa.udiv(wb).trunc(w)) << "udiv w" << w;
        EXPECT_EQ(a.urem(b), wa.urem(wb).trunc(w)) << "urem w" << w;
        EXPECT_EQ(a.sdiv(b), sa.sdiv(sb).trunc(w)) << "sdiv w" << w;
        EXPECT_EQ(a.srem(b), sa.srem(sb).trunc(w)) << "srem w" << w;
      }
      // Comparisons: narrow result must match the comparison of the
      // extended values (zext preserves unsigned order, sext signed).
      EXPECT_EQ(a.eq(b), wa.eq(wb)) << "eq w" << w;
      EXPECT_EQ(a.ult(b), wa.ult(wb)) << "ult w" << w;
      EXPECT_EQ(a.ule(b), wa.ule(wb)) << "ule w" << w;
      EXPECT_EQ(a.slt(b), sa.slt(sb)) << "slt w" << w;
      EXPECT_EQ(a.sle(b), sa.sle(sb)) << "sle w" << w;

      unsigned amount = static_cast<unsigned>(rng.next() % (w + 4));
      EXPECT_EQ(a.shl(amount), wa.shl(amount).trunc(w).shl(0)) << "shl w" << w;
      if (amount < w) {
        EXPECT_EQ(a.lshr(amount), wa.lshr(amount).trunc(w)) << "lshr w" << w;
        EXPECT_EQ(a.ashr(amount), sa.ashr(amount).trunc(w)) << "ashr w" << w;
      }
    }
  }
}

// The same property through eval_bin's inline dispatch is covered by the
// IR constant-folding and simulator tests; here we pin that wide widths
// (> 64) round-trip through arithmetic identities on random values.
TEST(BitVectorFastPath, WideArithmeticIdentitiesOnRandomInputs) {
  Rng rng;
  for (unsigned w : {65u, 127u, 255u, 256u}) {
    for (int iter = 0; iter < 100; ++iter) {
      BitVector a = BitVector::from_u64(w, rng.next()).shl(static_cast<unsigned>(
          rng.next() % (w - 60)));  // spread bits into the upper words
      BitVector b = BitVector::from_u64(w, rng.next());
      EXPECT_EQ(a.add(b).sub(b), a) << "add/sub w" << w;
      EXPECT_EQ(a.sub(a.add(a)), a.neg()) << "neg identity w" << w;
      EXPECT_EQ(a.bxor(b).bxor(b), a) << "xor w" << w;
      EXPECT_TRUE(a.sub(a).is_zero()) << "sub self w" << w;
      if (!b.is_zero()) {
        // n == q*d + r, with r < d (unsigned).
        BitVector q = a.udiv(b);
        BitVector r = a.urem(b);
        EXPECT_EQ(q.mul(b).add(r), a) << "divmod w" << w;
        EXPECT_TRUE(r.ult(b)) << "rem bound w" << w;
      }
    }
  }
}

}  // namespace
}  // namespace hlsav
