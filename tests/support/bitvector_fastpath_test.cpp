// Regression tests for BitVector's single-word operators at the widths
// where masking is easiest to get wrong: 1 (sign bit == only bit), 63
// (one excess bit in the word) and 64 (no mask at all, and native signed
// overflow at INT_MIN / -1).
#include <gtest/gtest.h>

#include <cstdint>

#include "support/bitvector.h"

namespace hlsav {
namespace {

constexpr unsigned kBoundaryWidths[] = {1, 63, 64};

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
    EXPECT_LT(top.to_i64(), 0) << "width " << w;
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
  // INT_MIN.
  for (unsigned w : kBoundaryWidths) {
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

// Arithmetic identities on random full-word values at every width class.
TEST(BitVectorFastPath, WideArithmeticIdentitiesOnRandomInputs) {
  Rng rng;
  for (unsigned w : {1u, 33u, 63u, 64u}) {
    for (int iter = 0; iter < 100; ++iter) {
      BitVector a = BitVector::from_u64(w, rng.next());
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
