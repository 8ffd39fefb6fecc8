// IEEE-754 binary16 (half precision) implemented from scratch.
//
// Float16 is the data type the paper adopts throughout ("The data type
// Float16 is adopted in this paper", Section III-B): the fractal layout
// constant C0 equals 16 precisely because a 16-element row of Float16
// values is 256 bits, and a 16x16 fractal is the 4096-bit unit consumed
// by the Cube Unit.
//
// Arithmetic is performed by converting to float, operating, and rounding
// back to half with round-to-nearest-even, which matches the behaviour of
// a hardware FP16 ALU for the single operations used by the simulator
// (max/min/add/sub/mul are correctly rounded this way; div too since
// binary32 has more than 2x the precision of binary16).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

namespace davinci {

namespace detail {

// Bit-exact float <-> uint32 transmutation.
inline std::uint32_t bits_of(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

inline float float_of(std::uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

// Convert a binary32 value to binary16 bits with round-to-nearest-even:
// subnormal results, overflow to infinity, and every NaN to the quiet
// NaN sign|0x7E00. Branch-free -- both rounding paths are computed and
// one is selected by mask -- so the interpreter's element loops (vector
// adds, Col2Im accumulation) carry no data-dependent branch and can
// vectorize. tests/test_float16.cc checks it against a branchy reference
// on every binary32 bit pattern.
inline std::uint16_t f32_to_f16_bits(float value) {
  const std::uint32_t x = bits_of(value);
  const std::uint32_t sign = (x >> 16) & 0x8000u;
  const std::uint32_t abs = x & 0x7FFFFFFFu;

  // Normal result (|value| >= 2^-14): rebias the exponent by -112 and
  // round on the 13 dropped bits -- adding 0xFFF plus the kept mantissa's
  // low bit carries exactly when the remainder is above half, or equal to
  // half with an odd mantissa. Carries ripple into the exponent; anything
  // at or past 65520 lands on or above 0x7C00 and clamps to infinity,
  // which is also where Inf and NaN land.
  const std::uint32_t normal =
      std::min((abs + 0xC8000FFFu + ((abs >> 13) & 1u)) >> 13, 0x7C00u);
  // Subnormal result (|value| < 2^-14): adding 0.5f, whose ulp is 2^-24,
  // lets the FPU's round-to-nearest-even leave the half mantissa in the
  // low bits (a value that rounds up to 2^-14 yields 0x0400, the smallest
  // normal).
  const std::uint32_t subnormal = bits_of(float_of(abs) + 0.5f) - 0x3F000000u;
  const std::uint32_t is_sub =  // all ones when the result is subnormal
      0u - static_cast<std::uint32_t>(abs < 0x38800000u);
  const std::uint32_t quiet =  // 0x7C00 | 0x0200 = 0x7E00 for NaN
      static_cast<std::uint32_t>(abs > 0x7F800000u) << 9;
  return static_cast<std::uint16_t>(sign | (subnormal & is_sub) |
                                    (normal & ~is_sub) | quiet);
}

inline float f16_bits_to_f32(std::uint16_t h) {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1Fu;
  const std::uint32_t mant = h & 0x3FFu;

  if (exp == 0) {
    if (mant == 0) return float_of(sign);  // +/-0
    // Subnormal: value = mant * 2^-24. Normalize into binary32.
    int e = -1;
    std::uint32_t m = mant;
    do {
      ++e;
      m <<= 1;
    } while ((m & 0x400u) == 0);
    const std::uint32_t exp32 = static_cast<std::uint32_t>(127 - 15 - e);
    const std::uint32_t mant32 = (m & 0x3FFu) << 13;
    return float_of(sign | (exp32 << 23) | mant32);
  }
  if (exp == 0x1F) {
    if (mant == 0) return float_of(sign | 0x7F800000u);  // +/-inf
    return float_of(sign | 0x7FC00000u | (mant << 13));  // NaN
  }
  const std::uint32_t exp32 = exp - 15 + 127;
  return float_of(sign | (exp32 << 23) | (mant << 13));
}

// Lazily-built 64K-entry half-bits -> binary32 table: one load replaces
// the branchy software conversion inside bulk element loops (the
// functional interpreter's vector/SCU inner loops). Entries match
// f16_bits_to_f32 exactly by construction, so results are bit-identical
// to the conversion path.
inline const float* f16_to_f32_table() {
  static const float* const table = [] {
    float* t = new float[65536];
    for (std::uint32_t i = 0; i < 65536; ++i) {
      t[i] = f16_bits_to_f32(static_cast<std::uint16_t>(i));
    }
    return t;
  }();
  return table;
}

}  // namespace detail

// A 16-bit IEEE-754 half-precision float value.
class Float16 {
 public:
  constexpr Float16() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): implicit like a builtin.
  Float16(float value) : bits_(detail::f32_to_f16_bits(value)) {}

  static constexpr Float16 from_bits(std::uint16_t bits) {
    Float16 h;
    h.bits_ = bits;
    return h;
  }

  std::uint16_t bits() const { return bits_; }
  float to_float() const { return detail::f16_bits_to_f32(bits_); }
  // NOLINTNEXTLINE(google-explicit-constructor)
  operator float() const { return to_float(); }

  bool is_nan() const {
    return ((bits_ & 0x7C00u) == 0x7C00u) && ((bits_ & 0x3FFu) != 0);
  }
  bool is_inf() const { return (bits_ & 0x7FFFu) == 0x7C00u; }
  bool is_zero() const { return (bits_ & 0x7FFFu) == 0; }

  // Largest finite half value: 65504.
  static constexpr Float16 max_finite() { return from_bits(0x7BFFu); }
  // Most negative finite half value: -65504. Used to initialise maxpool
  // accumulators ("the output tile is initialized with the minimum value
  // of the data type in use", Section V-A).
  static constexpr Float16 lowest() { return from_bits(0xFBFFu); }
  static constexpr Float16 infinity() { return from_bits(0x7C00u); }
  static constexpr Float16 neg_infinity() { return from_bits(0xFC00u); }
  // Smallest positive normal: 2^-14.
  static constexpr Float16 min_normal() { return from_bits(0x0400u); }
  // Machine epsilon for binary16: 2^-10.
  static float epsilon() { return 0.0009765625f; }

  friend bool operator==(Float16 a, Float16 b) {
    if (a.is_nan() || b.is_nan()) return false;
    if (a.is_zero() && b.is_zero()) return true;  // +0 == -0
    return a.bits_ == b.bits_;
  }
  friend bool operator!=(Float16 a, Float16 b) { return !(a == b); }
  friend bool operator<(Float16 a, Float16 b) {
    return a.to_float() < b.to_float();
  }
  friend bool operator<=(Float16 a, Float16 b) {
    return a.to_float() <= b.to_float();
  }
  friend bool operator>(Float16 a, Float16 b) {
    return a.to_float() > b.to_float();
  }
  friend bool operator>=(Float16 a, Float16 b) {
    return a.to_float() >= b.to_float();
  }

  // Single correctly-rounded operations (round via binary32).
  friend Float16 operator+(Float16 a, Float16 b) {
    return Float16(a.to_float() + b.to_float());
  }
  friend Float16 operator-(Float16 a, Float16 b) {
    return Float16(a.to_float() - b.to_float());
  }
  friend Float16 operator*(Float16 a, Float16 b) {
    return Float16(a.to_float() * b.to_float());
  }
  friend Float16 operator/(Float16 a, Float16 b) {
    return Float16(a.to_float() / b.to_float());
  }
  friend Float16 operator-(Float16 a) {
    return from_bits(static_cast<std::uint16_t>(a.bits_ ^ 0x8000u));
  }

  Float16& operator+=(Float16 b) { return *this = *this + b; }
  Float16& operator-=(Float16 b) { return *this = *this - b; }
  Float16& operator*=(Float16 b) { return *this = *this * b; }
  Float16& operator/=(Float16 b) { return *this = *this / b; }

 private:
  std::uint16_t bits_ = 0;
};

static_assert(sizeof(Float16) == 2, "Float16 must be 2 bytes");

inline Float16 fmax16(Float16 a, Float16 b) {
  // Hardware vmax semantics: propagate the larger value; if either is NaN
  // return the other operand (matches x86/ARM max "number wins" used by
  // AI accelerators).
  if (a.is_nan()) return b;
  if (b.is_nan()) return a;
  return a.to_float() >= b.to_float() ? a : b;
}

inline Float16 fmin16(Float16 a, Float16 b) {
  if (a.is_nan()) return b;
  if (b.is_nan()) return a;
  return a.to_float() <= b.to_float() ? a : b;
}

inline std::string to_string(Float16 h) { return std::to_string(h.to_float()); }

}  // namespace davinci
