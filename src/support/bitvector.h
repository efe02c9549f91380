// Two's-complement integer value of 1..64 bits.
//
// This is the value type of the IR constant folder, operands and fault
// hooks, traces and the invariant miner. Hardware signals have explicit
// bit widths; every operation here models the corresponding hardware
// operator exactly (wrap-around arithmetic, logical/arithmetic shifts,
// signed/unsigned comparisons at the operand width).
//
// Widths of the two operands must match for binary operations; width
// adaptation is explicit via zext/sext/trunc, mirroring the IR.
//
// Every signal of this HLS-C subset fits in a machine word: kMaxWidth is
// the one value-width limit, read by the lexer (`intN`), the parser
// (`stream_in<N>`), ir::verify, the op-tape decoder, codegen and the
// binary trace reader. A value is one uint64_t whose bits above the
// width are always zero.
#pragma once

#include <cstdint>
#include <string>

#include "support/diagnostics.h"

namespace hlsav {

class BitVector {
 public:
  /// The widest value (and so register, memory word and stream word).
  static constexpr unsigned kMaxWidth = 64;

  /// Zero value of the given width.
  explicit BitVector(unsigned width = 1) : width_(width) { check_width(width); }

  /// Builds from a 64-bit unsigned value, truncating to width.
  static BitVector from_u64(unsigned width, std::uint64_t value) {
    BitVector v(width);
    v.word_ = value & v.mask();
    return v;
  }
  /// Builds from a 64-bit signed value, truncating to width.
  static BitVector from_i64(unsigned width, std::int64_t value) {
    return from_u64(width, static_cast<std::uint64_t>(value));
  }
  /// Builds from a boolean as a width-1 vector.
  static BitVector from_bool(bool b) { return from_u64(1, b ? 1 : 0); }
  /// All-ones value of the given width.
  static BitVector all_ones(unsigned width) { return from_u64(width, ~std::uint64_t{0}); }

  [[nodiscard]] unsigned width() const { return width_; }

  /// The value zero-extended to 64 bits.
  [[nodiscard]] std::uint64_t to_u64() const { return word_; }
  /// The value sign-extended to 64 bits.
  [[nodiscard]] std::int64_t to_i64() const {
    return static_cast<std::int64_t>(sign_bit() ? word_ | ~mask() : word_);
  }
  /// True iff any bit is set.
  [[nodiscard]] bool any() const { return word_ != 0; }
  [[nodiscard]] bool is_zero() const { return word_ == 0; }
  /// Most significant (sign) bit.
  [[nodiscard]] bool sign_bit() const { return (word_ >> (width_ - 1)) & 1; }
  [[nodiscard]] bool bit(unsigned i) const {
    HLSAV_CHECK(i < width_, "bit index out of range");
    return (word_ >> i) & 1;
  }
  void set_bit(unsigned i, bool v) {
    HLSAV_CHECK(i < width_, "bit index out of range");
    const std::uint64_t m = std::uint64_t{1} << i;
    word_ = v ? word_ | m : word_ & ~m;
  }

  // Arithmetic (operand widths must match; result has the same width).
  [[nodiscard]] BitVector add(const BitVector& rhs) const {
    check_same(rhs);
    return make(width_, (word_ + rhs.word_) & mask());
  }
  [[nodiscard]] BitVector sub(const BitVector& rhs) const {
    check_same(rhs);
    return make(width_, (word_ - rhs.word_) & mask());
  }
  [[nodiscard]] BitVector mul(const BitVector& rhs) const {
    check_same(rhs);
    return make(width_, (word_ * rhs.word_) & mask());
  }
  /// x/0 == all ones.
  [[nodiscard]] BitVector udiv(const BitVector& rhs) const {
    check_same(rhs);
    if (rhs.is_zero()) return all_ones(width_);
    return make(width_, word_ / rhs.word_);
  }
  /// x%0 == x.
  [[nodiscard]] BitVector urem(const BitVector& rhs) const {
    check_same(rhs);
    if (rhs.is_zero()) return *this;
    return make(width_, word_ % rhs.word_);
  }
  // Signed division divides the unsigned magnitudes at width, then
  // reapplies the sign: this wraps INT_MIN / -1 to INT_MIN exactly like
  // the hardware divider (and avoids the native signed-overflow UB at
  // width 64).
  [[nodiscard]] BitVector sdiv(const BitVector& rhs) const {
    check_same(rhs);
    if (rhs.is_zero()) return all_ones(width_);
    const std::uint64_t q = magnitude() / rhs.magnitude();
    return make(width_, sign_bit() != rhs.sign_bit() ? (0 - q) & mask() : q);
  }
  [[nodiscard]] BitVector srem(const BitVector& rhs) const {
    check_same(rhs);
    if (rhs.is_zero()) return *this;
    const std::uint64_t r = magnitude() % rhs.magnitude();
    return make(width_, sign_bit() ? (0 - r) & mask() : r);
  }
  [[nodiscard]] BitVector neg() const { return make(width_, (0 - word_) & mask()); }

  // Bitwise.
  [[nodiscard]] BitVector band(const BitVector& rhs) const {
    check_same(rhs);
    return make(width_, word_ & rhs.word_);
  }
  [[nodiscard]] BitVector bor(const BitVector& rhs) const {
    check_same(rhs);
    return make(width_, word_ | rhs.word_);
  }
  [[nodiscard]] BitVector bxor(const BitVector& rhs) const {
    check_same(rhs);
    return make(width_, word_ ^ rhs.word_);
  }
  [[nodiscard]] BitVector bnot() const { return make(width_, ~word_ & mask()); }

  // Shifts; the shift amount is taken modulo nothing: amounts >= width
  // yield 0 (or all-sign for ashr), matching hardware barrel shifters.
  [[nodiscard]] BitVector shl(unsigned amount) const {
    if (amount >= width_) return BitVector(width_);
    return make(width_, (word_ << amount) & mask());
  }
  [[nodiscard]] BitVector lshr(unsigned amount) const {
    if (amount >= width_) return BitVector(width_);
    return make(width_, word_ >> amount);
  }
  [[nodiscard]] BitVector ashr(unsigned amount) const {
    const bool s = sign_bit();
    if (amount >= width_) return s ? all_ones(width_) : BitVector(width_);
    const std::uint64_t m = mask();
    std::uint64_t v = word_ >> amount;
    if (s && amount != 0) v |= m ^ (m >> amount);  // sign-fill the vacated bits
    return make(width_, v);
  }

  // Comparisons at operand width.
  [[nodiscard]] bool eq(const BitVector& rhs) const {
    check_same(rhs);
    return word_ == rhs.word_;
  }
  [[nodiscard]] bool ult(const BitVector& rhs) const {
    check_same(rhs);
    return word_ < rhs.word_;
  }
  [[nodiscard]] bool ule(const BitVector& rhs) const {
    check_same(rhs);
    return word_ <= rhs.word_;
  }
  [[nodiscard]] bool slt(const BitVector& rhs) const {
    check_same(rhs);
    if (sign_bit() != rhs.sign_bit()) return sign_bit();
    return word_ < rhs.word_;
  }
  [[nodiscard]] bool sle(const BitVector& rhs) const {
    check_same(rhs);
    if (sign_bit() != rhs.sign_bit()) return sign_bit();
    return word_ <= rhs.word_;
  }

  // Width adaptation.
  [[nodiscard]] BitVector zext(unsigned new_width) const {
    HLSAV_CHECK(new_width >= width_, "zext must not shrink");
    return from_u64(new_width, word_);
  }
  [[nodiscard]] BitVector sext(unsigned new_width) const {
    HLSAV_CHECK(new_width >= width_, "sext must not shrink");
    return from_i64(new_width, to_i64());
  }
  [[nodiscard]] BitVector trunc(unsigned new_width) const {
    HLSAV_CHECK(new_width <= width_, "trunc must not grow");
    return from_u64(new_width, word_);
  }
  /// zext/sext/trunc as needed to reach new_width.
  [[nodiscard]] BitVector resize(unsigned new_width, bool is_signed) const {
    if (new_width == width_) return *this;
    if (new_width < width_) return trunc(new_width);
    return is_signed ? sext(new_width) : zext(new_width);
  }

  /// Extracts bits [lo, lo+w) as a width-w value.
  [[nodiscard]] BitVector extract(unsigned lo, unsigned w) const {
    HLSAV_CHECK(lo + w <= width_, "extract out of range");
    return lshr(lo).trunc(w);
  }

  [[nodiscard]] std::string to_string_dec(bool is_signed = false) const {
    return is_signed ? std::to_string(to_i64()) : std::to_string(word_);
  }

  friend bool operator==(const BitVector& a, const BitVector& b) {
    return a.width_ == b.width_ && a.word_ == b.word_;
  }

 private:
  std::uint64_t word_ = 0;  // bits at and above width_ always zero
  unsigned width_;

  /// Mask of the valid bits.
  [[nodiscard]] std::uint64_t mask() const { return ~std::uint64_t{0} >> (64 - width_); }
  /// The value's absolute value as a signed number, at width.
  [[nodiscard]] std::uint64_t magnitude() const {
    return sign_bit() ? (0 - word_) & mask() : word_;
  }
  /// Wraps an already-masked word.
  static BitVector make(unsigned width, std::uint64_t masked) {
    BitVector v(width);
    v.word_ = masked;
    return v;
  }
  static void check_width(unsigned w) {
    HLSAV_CHECK(w >= 1 && w <= kMaxWidth, "BitVector width out of range");
  }
  void check_same(const BitVector& rhs) const {
    HLSAV_CHECK(width_ == rhs.width_, "BitVector width mismatch");
  }
};

}  // namespace hlsav
