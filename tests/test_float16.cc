// Unit tests for the from-scratch IEEE-754 binary16 implementation.
#include "common/float16.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/prng.h"

namespace davinci {
namespace {

// The reference binary32 -> binary16 conversion: the simulator's original
// branchy round-to-nearest-even, which the branch-free
// detail::f32_to_f16_bits replaced. Every fp16 result of the device and of
// src/ref/ goes through that one conversion, so this oracle is what pins
// the rounding of both.
std::uint16_t f32_to_f16_bits_oracle(float value) {
  const std::uint32_t x = detail::bits_of(value);
  const std::uint32_t sign = (x >> 16) & 0x8000u;
  const std::uint32_t abs = x & 0x7FFFFFFFu;

  if (abs >= 0x7F800000u) {  // Inf or NaN
    if (abs > 0x7F800000u) {
      // NaN: keep it a NaN; set the quiet bit.
      return static_cast<std::uint16_t>(sign | 0x7E00u);
    }
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }
  if (abs >= 0x47800000u) {  // >= 65536: certainly infinity
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }

  const int exp32 = static_cast<int>(abs >> 23);  // biased by 127
  const int exp16 = exp32 - 127 + 15;             // biased by 15

  std::uint32_t mant = abs & 0x7FFFFFu;
  if (exp16 <= 0) {
    // Subnormal (or zero) in half precision.
    if (exp16 < -10) {  // Too small: rounds to +/-0.
      return static_cast<std::uint16_t>(sign);
    }
    // Add the implicit leading one, then shift right by (1 - exp16) + 13.
    mant |= 0x800000u;
    const int shift = 14 - exp16;  // 13 (mantissa diff) + (1 - exp16)
    const std::uint32_t kept = mant >> shift;
    const std::uint32_t rem = mant & ((1u << shift) - 1u);
    const std::uint32_t half = 1u << (shift - 1);
    std::uint32_t rounded = kept;
    if (rem > half || (rem == half && (kept & 1u))) {
      rounded += 1;  // May carry into the exponent; that is still correct.
    }
    return static_cast<std::uint16_t>(sign | rounded);
  }

  // Normalized: keep the top 10 mantissa bits, round on the low 13.
  const std::uint32_t kept = mant >> 13;
  const std::uint32_t rem = mant & 0x1FFFu;
  std::uint32_t out = sign | (static_cast<std::uint32_t>(exp16) << 10) | kept;
  if (rem > 0x1000u || (rem == 0x1000u && (out & 1u))) {
    out += 1;  // Carries correctly into exponent / infinity (65520 -> inf).
  }
  return static_cast<std::uint16_t>(out);
}

TEST(Float16, ConversionMatchesOracleOnEveryFloat) {
  // All 2^32 binary32 bit patterns, split over a few threads. Each slice
  // counts its mismatches and keeps the first one for the report.
  const unsigned slices =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  struct Slice {
    std::uint64_t mismatches = 0;
    std::uint32_t first = 0;
  };
  static constexpr std::uint64_t kAll = std::uint64_t{1} << 32;
  std::vector<Slice> result(slices);
  const std::uint64_t per = (kAll + slices - 1) / slices;
  {
    std::vector<std::jthread> threads;  // joined when the scope closes
    for (unsigned s = 0; s < slices; ++s) {
      threads.emplace_back([&result, s, per] {
        const std::uint64_t lo = s * per;
        const std::uint64_t hi = std::min(lo + per, kAll);
        Slice& r = result[s];
        for (std::uint64_t u = lo; u < hi; ++u) {
          const float f = detail::float_of(static_cast<std::uint32_t>(u));
          if (detail::f32_to_f16_bits(f) != f32_to_f16_bits_oracle(f)) {
            if (r.mismatches++ == 0) r.first = static_cast<std::uint32_t>(u);
          }
        }
      });
    }
  }
  for (const Slice& r : result) {
    EXPECT_EQ(r.mismatches, 0u)
        << "first mismatch at float bits 0x" << std::hex << r.first << ": 0x"
        << detail::f32_to_f16_bits(detail::float_of(r.first)) << " vs oracle 0x"
        << f32_to_f16_bits_oracle(detail::float_of(r.first));
  }
}

TEST(Float16, ZeroAndSigns) {
  EXPECT_EQ(Float16(0.0f).bits(), 0x0000u);
  EXPECT_EQ(Float16(-0.0f).bits(), 0x8000u);
  EXPECT_TRUE(Float16(0.0f) == Float16(-0.0f));
  EXPECT_TRUE(Float16(0.0f).is_zero());
  EXPECT_TRUE(Float16(-0.0f).is_zero());
}

TEST(Float16, ExactSmallIntegers) {
  // All integers up to 2048 are exactly representable in binary16.
  for (int i = -2048; i <= 2048; ++i) {
    EXPECT_EQ(Float16(static_cast<float>(i)).to_float(),
              static_cast<float>(i))
        << "integer " << i;
  }
}

TEST(Float16, KnownBitPatterns) {
  EXPECT_EQ(Float16(1.0f).bits(), 0x3C00u);
  EXPECT_EQ(Float16(-1.0f).bits(), 0xBC00u);
  EXPECT_EQ(Float16(2.0f).bits(), 0x4000u);
  EXPECT_EQ(Float16(0.5f).bits(), 0x3800u);
  EXPECT_EQ(Float16(65504.0f).bits(), 0x7BFFu);  // max finite
  EXPECT_EQ(Float16(0.0009765625f).bits(), 0x1400u);  // 2^-10
}

TEST(Float16, OverflowToInfinity) {
  EXPECT_TRUE(Float16(65536.0f).is_inf());
  EXPECT_TRUE(Float16(1e30f).is_inf());
  EXPECT_TRUE(Float16(-1e30f).is_inf());
  EXPECT_LT(Float16(-1e30f).to_float(), 0.0f);
  // 65504 is the largest finite value; 65520 is the rounding boundary.
  EXPECT_FALSE(Float16(65504.0f).is_inf());
  EXPECT_TRUE(Float16(65520.0f).is_inf());
  EXPECT_FALSE(Float16(65519.996f).is_inf());
}

TEST(Float16, Subnormals) {
  const float min_sub = std::ldexp(1.0f, -24);  // smallest positive subnormal
  EXPECT_EQ(Float16(min_sub).bits(), 0x0001u);
  EXPECT_EQ(Float16(min_sub).to_float(), min_sub);
  const float below_half_min = std::ldexp(1.0f, -26);
  EXPECT_TRUE(Float16(below_half_min).is_zero());  // rounds to zero
  // Largest subnormal: (1023/1024) * 2^-14.
  const float max_sub = std::ldexp(1023.0f, -24);
  EXPECT_EQ(Float16(max_sub).bits(), 0x03FFu);
}

TEST(Float16, RoundToNearestEven) {
  // 1 + 2^-11 is exactly halfway between 1.0 and 1 + 2^-10; ties to even
  // rounds down to 1.0.
  const float halfway = 1.0f + std::ldexp(1.0f, -11);
  EXPECT_EQ(Float16(halfway).bits(), 0x3C00u);
  // 1 + 3 * 2^-11 is halfway between 1 + 2^-10 and 1 + 2^-9; ties to even
  // rounds up to 1 + 2^-9 (even mantissa).
  const float halfway2 = 1.0f + 3.0f * std::ldexp(1.0f, -11);
  EXPECT_EQ(Float16(halfway2).bits(), 0x3C02u);
  // Just above halfway rounds up.
  EXPECT_EQ(Float16(halfway + 1e-6f).bits(), 0x3C01u);
}

TEST(Float16, NanHandling) {
  const Float16 nan(std::numeric_limits<float>::quiet_NaN());
  EXPECT_TRUE(nan.is_nan());
  EXPECT_FALSE(nan == nan);
  EXPECT_TRUE(std::isnan(nan.to_float()));
}

TEST(Float16, InfinityRoundTrip) {
  const Float16 inf = Float16::infinity();
  EXPECT_TRUE(inf.is_inf());
  EXPECT_TRUE(std::isinf(inf.to_float()));
  EXPECT_GT(inf.to_float(), 0.0f);
  EXPECT_TRUE(Float16(inf.to_float()).is_inf());
  EXPECT_EQ(Float16::neg_infinity().to_float(),
            -std::numeric_limits<float>::infinity());
}

TEST(Float16, RoundTripAllBitPatterns) {
  // Every finite half value must survive half -> float -> half exactly.
  for (std::uint32_t b = 0; b <= 0xFFFFu; ++b) {
    const Float16 h = Float16::from_bits(static_cast<std::uint16_t>(b));
    if (h.is_nan()) continue;
    const Float16 back(h.to_float());
    EXPECT_EQ(back.bits(), h.bits()) << "bits " << b;
  }
}

TEST(Float16, ArithmeticExactOnSmallIntegers) {
  EXPECT_EQ((Float16(3.0f) + Float16(4.0f)).to_float(), 7.0f);
  EXPECT_EQ((Float16(10.0f) - Float16(4.0f)).to_float(), 6.0f);
  EXPECT_EQ((Float16(12.0f) * Float16(12.0f)).to_float(), 144.0f);
  EXPECT_EQ((Float16(9.0f) / Float16(3.0f)).to_float(), 3.0f);
  EXPECT_EQ((-Float16(5.0f)).to_float(), -5.0f);
}

TEST(Float16, ArithmeticRounds) {
  // 2048 + 1 rounds to 2048 in binary16 (ulp at 2048 is 2).
  EXPECT_EQ((Float16(2048.0f) + Float16(1.0f)).to_float(), 2048.0f);
  // 2048 + 3 = 2051 is halfway between 2050 and 2052; ties-to-even picks
  // 2052 (even mantissa).
  EXPECT_EQ((Float16(2048.0f) + Float16(3.0f)).to_float(), 2052.0f);
  EXPECT_EQ((Float16(2048.0f) + Float16(4.0f)).to_float(), 2052.0f);
}

TEST(Float16, MaxMinSemantics) {
  EXPECT_EQ(fmax16(Float16(1.0f), Float16(2.0f)).to_float(), 2.0f);
  EXPECT_EQ(fmin16(Float16(1.0f), Float16(2.0f)).to_float(), 1.0f);
  EXPECT_EQ(fmax16(Float16::lowest(), Float16(-3.0f)).to_float(), -3.0f);
  // NaN loses against numbers.
  const Float16 nan(std::numeric_limits<float>::quiet_NaN());
  EXPECT_EQ(fmax16(nan, Float16(5.0f)).to_float(), 5.0f);
  EXPECT_EQ(fmax16(Float16(5.0f), nan).to_float(), 5.0f);
}

TEST(Float16, ComparisonOperators) {
  EXPECT_LT(Float16(1.0f), Float16(2.0f));
  EXPECT_GT(Float16(2.0f), Float16(1.0f));
  EXPECT_LE(Float16(2.0f), Float16(2.0f));
  EXPECT_GE(Float16(2.0f), Float16(2.0f));
  EXPECT_NE(Float16(1.0f), Float16(2.0f));
}

TEST(Float16, LowestIsMinusMaxFinite) {
  EXPECT_EQ(Float16::lowest().to_float(), -65504.0f);
  EXPECT_EQ(Float16::max_finite().to_float(), 65504.0f);
}

TEST(Float16, RandomConversionMatchesLongDouble) {
  // Conversion through the implementation must agree with a
  // straightforward nearest-value search on random inputs.
  Xoshiro256 rng(42);
  for (int i = 0; i < 20000; ++i) {
    const float x = rng.next_float(-70000.0f, 70000.0f);
    const Float16 h(x);
    if (h.is_inf()) {
      EXPECT_GE(std::abs(x), 65520.0f);
      continue;
    }
    // |x - h| must be at most half an ulp of h's binade.
    const float back = h.to_float();
    const float err = std::abs(back - x);
    int exp;
    std::frexp(back == 0.0f ? x : back, &exp);
    const float ulp =
        std::ldexp(1.0f, std::max(exp - 11, -24));  // half ulp bound
    EXPECT_LE(err, ulp) << "x=" << x << " back=" << back;
  }
}

}  // namespace
}  // namespace davinci
