// BitVector unit + property tests: the simulator's value type must match
// two's-complement hardware semantics exactly, so we check it against
// native 64-bit arithmetic over many widths and random operand pairs.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "support/bitvector.h"
#include "support/diagnostics.h"
#include "support/str.h"

namespace hlsav {
namespace {

TEST(BitVector, ConstructionAndMasking) {
  BitVector v = BitVector::from_u64(8, 0x1ff);
  EXPECT_EQ(v.to_u64(), 0xffu);
  EXPECT_EQ(v.width(), 8u);

  BitVector w = BitVector::from_u64(5, 22);
  EXPECT_EQ(w.to_u64(), 22u);
  EXPECT_EQ(BitVector::from_u64(5, 32).to_u64(), 0u);
}

TEST(BitVector, SignedConstruction) {
  BitVector v = BitVector::from_i64(8, -1);
  EXPECT_EQ(v.to_u64(), 0xffu);
  EXPECT_EQ(v.to_i64(), -1);
  EXPECT_TRUE(v.sign_bit());

  BitVector w = BitVector::from_i64(16, -300);
  EXPECT_EQ(w.to_i64(), -300);
}

TEST(BitVector, AllOnes) {
  EXPECT_EQ(BitVector::all_ones(7).to_u64(), 0x7fu);
  EXPECT_EQ(BitVector::all_ones(63).to_u64(), ~std::uint64_t{0} >> 1);
  BitVector big = BitVector::all_ones(64);
  EXPECT_TRUE(big.bit(63));
  EXPECT_EQ(big.to_u64(), ~std::uint64_t{0});
  EXPECT_EQ(big.to_i64(), -1);
}

TEST(BitVector, BitAccess) {
  BitVector v(64);
  v.set_bit(63, true);
  EXPECT_TRUE(v.bit(63));
  EXPECT_TRUE(v.any());
  EXPECT_TRUE(v.sign_bit());
  v.set_bit(63, false);
  EXPECT_TRUE(v.is_zero());
  EXPECT_THROW((void)v.bit(64), InternalError);
  EXPECT_THROW(v.set_bit(64, true), InternalError);
}

TEST(BitVector, WidthsAboveMaxWidthThrow) {
  // Every value fits in one 64-bit word; the limit is BitVector::kMaxWidth.
  EXPECT_EQ(BitVector::kMaxWidth, 64u);
  EXPECT_THROW(BitVector(65), InternalError);
  EXPECT_THROW((void)BitVector::from_u64(65, 1), InternalError);
  EXPECT_THROW(BitVector(0), InternalError);
  EXPECT_THROW((void)BitVector::from_u64(64, 1).zext(65), InternalError);
  EXPECT_THROW((void)BitVector::from_u64(64, 1).sext(65), InternalError);
}

TEST(BitVector, MulTruncates) {
  BitVector a = BitVector::from_u64(8, 200);
  BitVector b = BitVector::from_u64(8, 3);
  EXPECT_EQ(a.mul(b).to_u64(), (200u * 3u) & 0xffu);
}

TEST(BitVector, DivByZeroConventions) {
  BitVector a = BitVector::from_u64(8, 42);
  BitVector z(8);
  EXPECT_EQ(a.udiv(z).to_u64(), 0xffu);  // all ones
  EXPECT_EQ(a.urem(z).to_u64(), 42u);    // unchanged
}

TEST(BitVector, ShiftBeyondWidth) {
  BitVector a = BitVector::from_u64(8, 0x80);
  EXPECT_EQ(a.shl(8).to_u64(), 0u);
  EXPECT_EQ(a.lshr(8).to_u64(), 0u);
  EXPECT_EQ(a.ashr(8).to_u64(), 0xffu);  // sign fill
  BitVector p = BitVector::from_u64(8, 0x40);
  EXPECT_EQ(p.ashr(8).to_u64(), 0u);
}

TEST(BitVector, ExtensionAndTruncation) {
  BitVector v = BitVector::from_i64(8, -2);
  EXPECT_EQ(v.sext(16).to_i64(), -2);
  EXPECT_EQ(v.zext(16).to_u64(), 0xfeu);
  EXPECT_EQ(v.trunc(4).to_u64(), 0xeu);
  EXPECT_EQ(v.resize(16, true).to_i64(), -2);
  EXPECT_EQ(v.resize(16, false).to_u64(), 0xfeu);
}

TEST(BitVector, Extract) {
  BitVector v = BitVector::from_u64(32, 0xdeadbeef);
  EXPECT_EQ(v.extract(0, 8).to_u64(), 0xefu);
  EXPECT_EQ(v.extract(16, 16).to_u64(), 0xdeadu);
}

TEST(BitVector, DecimalStrings) {
  EXPECT_EQ(BitVector::from_u64(32, 4294967286u).to_string_dec(false), "4294967286");
  EXPECT_EQ(BitVector::from_i64(32, -10).to_string_dec(true), "-10");
  EXPECT_EQ(BitVector(8).to_string_dec(false), "0");
  // At the 64-bit limit: 2^64 - 1 unsigned, -2^63 signed.
  EXPECT_EQ(BitVector::all_ones(64).to_string_dec(false), "18446744073709551615");
  EXPECT_EQ(BitVector::from_u64(64, 1).shl(63).to_string_dec(true), "-9223372036854775808");
}

TEST(BitVector, PaperNarrowCompareExample) {
  // The paper's §5.1 bug: 4294967286 > 4294967296 is false at 64 bits but
  // the erroneously narrowed 5-bit comparison 22 > 0 is true.
  BitVector c2 = BitVector::from_u64(64, 4294967286ull);
  BitVector c1 = BitVector::from_u64(64, 4294967296ull);
  EXPECT_FALSE(c1.ult(c2));  // c2 > c1 is false
  BitVector n2 = c2.trunc(5);
  BitVector n1 = c1.trunc(5);
  EXPECT_EQ(n2.to_u64(), 22u);
  EXPECT_EQ(n1.to_u64(), 0u);
  EXPECT_TRUE(n1.ult(n2));  // narrowed compare flips the verdict
}

// ------------------------- property tests vs native 64-bit reference --

struct WidthCase {
  unsigned width;
};

class BitVectorProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(BitVectorProperty, MatchesNative64) {
  const unsigned w = GetParam();
  const std::uint64_t mask = w == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << w) - 1);
  SplitMix64 rng(0x1234 + w);

  auto sext64 = [&](std::uint64_t x) -> std::int64_t {
    if (w == 64) return static_cast<std::int64_t>(x);
    std::uint64_t sign = std::uint64_t{1} << (w - 1);
    return static_cast<std::int64_t>((x ^ sign) - sign);
  };

  for (int iter = 0; iter < 300; ++iter) {
    std::uint64_t xa = rng.next() & mask;
    std::uint64_t xb = rng.next() & mask;
    BitVector a = BitVector::from_u64(w, xa);
    BitVector b = BitVector::from_u64(w, xb);

    EXPECT_EQ(a.add(b).to_u64(), (xa + xb) & mask);
    EXPECT_EQ(a.sub(b).to_u64(), (xa - xb) & mask);
    EXPECT_EQ(a.mul(b).to_u64(), (xa * xb) & mask);
    EXPECT_EQ(a.band(b).to_u64(), xa & xb);
    EXPECT_EQ(a.bor(b).to_u64(), xa | xb);
    EXPECT_EQ(a.bxor(b).to_u64(), xa ^ xb);
    EXPECT_EQ(a.bnot().to_u64(), ~xa & mask);
    EXPECT_EQ(a.neg().to_u64(), (~xa + 1) & mask);

    EXPECT_EQ(a.eq(b), xa == xb);
    EXPECT_EQ(a.ult(b), xa < xb);
    EXPECT_EQ(a.ule(b), xa <= xb);
    EXPECT_EQ(a.slt(b), sext64(xa) < sext64(xb));
    EXPECT_EQ(a.sle(b), sext64(xa) <= sext64(xb));

    if (xb != 0) {
      EXPECT_EQ(a.udiv(b).to_u64(), xa / xb);
      EXPECT_EQ(a.urem(b).to_u64(), xa % xb);
      std::int64_t sa = sext64(xa);
      std::int64_t sb = sext64(xb);
      if (!(sa == std::numeric_limits<std::int64_t>::min() && sb == -1) && sb != 0) {
        EXPECT_EQ(a.sdiv(b).to_i64(), sext64(static_cast<std::uint64_t>(sa / sb) & mask));
        EXPECT_EQ(a.srem(b).to_i64(), sext64(static_cast<std::uint64_t>(sa % sb) & mask));
      }
    }

    unsigned sh = static_cast<unsigned>(rng.next_below(w));
    EXPECT_EQ(a.shl(sh).to_u64(), (xa << sh) & mask);
    EXPECT_EQ(a.lshr(sh).to_u64(), xa >> sh);
    EXPECT_EQ(a.ashr(sh).to_i64(), sext64(static_cast<std::uint64_t>(sext64(xa) >> sh) & mask));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitVectorProperty,
                         ::testing::Values(1u, 5u, 8u, 13u, 16u, 31u, 32u, 47u, 63u, 64u));

/// Full-width consistency: 64-bit ops agree with two independent 32-bit
/// halves for the bitwise operators, extract and shifting by 32.
TEST(BitVectorProperty, WideConsistency) {
  SplitMix64 rng(77);
  for (int iter = 0; iter < 200; ++iter) {
    std::uint64_t lo = rng.next() & 0xffff'ffffu;
    std::uint64_t hi = rng.next() & 0xffff'ffffu;
    BitVector v = BitVector::from_u64(64, hi).shl(32).bor(BitVector::from_u64(64, lo));
    EXPECT_EQ(v.extract(0, 32).to_u64(), lo);
    EXPECT_EQ(v.extract(32, 32).to_u64(), hi);
    EXPECT_EQ(v.lshr(32).to_u64(), hi);
    EXPECT_EQ(v.shl(32).extract(32, 32).to_u64(), lo);
  }
}

}  // namespace
}  // namespace hlsav
