#include <gtest/gtest.h>

#include "support/str.h"

namespace hlsav {
namespace {

TEST(Str, Split) {
  auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
  EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(Str, Trim) {
  EXPECT_EQ(trim("  x y \t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Str, StartsWith) {
  EXPECT_TRUE(starts_with("pragma HLS", "pragma"));
  EXPECT_FALSE(starts_with("prag", "pragma"));
}

TEST(Str, JoinAndLower) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(to_lower("HLS Pipeline"), "hls pipeline");
}

TEST(Str, Fnv1aDeterministic) {
  constexpr std::uint64_t h = fnv1a("triple_des");
  static_assert(h != 0);
  EXPECT_EQ(fnv1a("triple_des"), h);
  EXPECT_NE(fnv1a("triple_des"), fnv1a("triple_dss"));
  // Chained calls hash the concatenated input.
  EXPECT_EQ(fnv1a("_des", fnv1a("triple")), h);
}

TEST(SplitMix, DeterministicSequence) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix, DoubleRange) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(SplitMix, NextBelow) {
  SplitMix64 rng(9);
  for (int i = 0; i < 100; ++i) EXPECT_LT(rng.next_below(10), 10u);
  EXPECT_EQ(rng.next_below(0), 0u);
}

}  // namespace
}  // namespace hlsav
