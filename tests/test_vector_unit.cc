// Unit tests for the Vector Unit: instruction semantics, mask gating,
// repeat strides, the reduction idiom, and cycle accounting.
#include "sim/vector_unit.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>

#include "arch/arch_config.h"
#include "arch/cost_model.h"
#include "common/check.h"
#include "sim/scratch.h"

namespace davinci {
namespace {

class VectorUnitTest : public ::testing::Test {
 protected:
  VectorUnitTest()
      : ub_(BufferKind::kUnified, 64 * 1024),
        vec_(arch_, cost_, &ledger_) {}

  Span<Float16> alloc_filled(std::int64_t n, float v) {
    auto s = ub_.alloc<Float16>(n);
    for (std::int64_t i = 0; i < n; ++i) s.at(i) = Float16(v);
    return s;
  }

  ArchConfig arch_;
  CostModel cost_;
  Ledger ledger_;
  ScratchBuffer ub_;
  VectorUnit vec_;
};

TEST_F(VectorUnitTest, MaskFirstN) {
  EXPECT_EQ(VecMask::first_n(0).count(), 0);
  EXPECT_EQ(VecMask::first_n(16).count(), 16);
  EXPECT_EQ(VecMask::first_n(64).count(), 64);
  EXPECT_EQ(VecMask::first_n(100).count(), 100);
  EXPECT_EQ(VecMask::first_n(128).count(), 128);
  EXPECT_EQ(VecMask::full().count(), 128);
  EXPECT_TRUE(VecMask::first_n(17).lane(16));
  EXPECT_FALSE(VecMask::first_n(17).lane(17));
  EXPECT_TRUE(VecMask::first_n(128).lane(127));
  EXPECT_THROW(VecMask::first_n(129), Error);
}

TEST_F(VectorUnitTest, BinaryOpsElementwise) {
  auto a = alloc_filled(128, 3.0f);
  auto b = alloc_filled(128, 4.0f);
  auto d = ub_.alloc<Float16>(128);
  vec_.binary(VecOp::kAdd, d, a, b, VecConfig::flat(1));
  EXPECT_EQ(d.at(0).to_float(), 7.0f);
  EXPECT_EQ(d.at(127).to_float(), 7.0f);
  vec_.binary(VecOp::kMul, d, a, b, VecConfig::flat(1));
  EXPECT_EQ(d.at(50).to_float(), 12.0f);
  vec_.binary(VecOp::kSub, d, a, b, VecConfig::flat(1));
  EXPECT_EQ(d.at(3).to_float(), -1.0f);
  vec_.binary(VecOp::kMax, d, a, b, VecConfig::flat(1));
  EXPECT_EQ(d.at(9).to_float(), 4.0f);
  vec_.binary(VecOp::kMin, d, a, b, VecConfig::flat(1));
  EXPECT_EQ(d.at(9).to_float(), 3.0f);
  vec_.binary(VecOp::kDiv, d, b, a, VecConfig::flat(1));
  EXPECT_NEAR(d.at(0).to_float(), 4.0f / 3.0f, 1e-3f);
}

TEST_F(VectorUnitTest, MaskGatesLanes) {
  auto a = alloc_filled(128, 1.0f);
  auto b = alloc_filled(128, 2.0f);
  auto d = alloc_filled(128, -9.0f);
  VecConfig cfg = VecConfig::flat(1);
  cfg.mask = VecMask::first_n(16);
  vec_.binary(VecOp::kAdd, d, a, b, cfg);
  EXPECT_EQ(d.at(15).to_float(), 3.0f);
  EXPECT_EQ(d.at(16).to_float(), -9.0f);  // untouched
}

TEST_F(VectorUnitTest, RepeatAdvancesByStrides) {
  auto a = alloc_filled(256, 1.0f);
  auto b = alloc_filled(256, 2.0f);
  auto d = alloc_filled(256, 0.0f);
  VecConfig cfg = VecConfig::flat(2);  // default strides 128
  vec_.binary(VecOp::kAdd, d, a, b, cfg);
  EXPECT_EQ(d.at(0).to_float(), 3.0f);
  EXPECT_EQ(d.at(255).to_float(), 3.0f);
}

TEST_F(VectorUnitTest, ReductionIdiomWithZeroDstStride) {
  // dst stride 0 with dst == src0 accumulates across repeats -- the
  // "vmax uses repetition to obtain the maximum across Kw" idiom.
  auto src = ub_.alloc<Float16>(3 * 16);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 16; ++c) {
      src.at(r * 16 + c) = Float16(static_cast<float>(r == 1 ? 10 + c : c));
    }
  }
  auto acc = alloc_filled(16, -100.0f);
  VecConfig cfg;
  cfg.mask = VecMask::first_n(16);
  cfg.repeat = 3;
  cfg.dst_rep_stride = 0;
  cfg.src0_rep_stride = 0;
  cfg.src1_rep_stride = 16;
  vec_.binary(VecOp::kMax, acc, acc, src, cfg);
  for (int c = 0; c < 16; ++c) {
    EXPECT_EQ(acc.at(c).to_float(), static_cast<float>(10 + c));
  }
}

TEST_F(VectorUnitTest, DupAddsMuls) {
  auto d = ub_.alloc<Float16>(128);
  vec_.dup(d, Float16(5.0f), VecConfig::flat(1));
  EXPECT_EQ(d.at(77).to_float(), 5.0f);
  auto s = alloc_filled(128, 3.0f);
  vec_.adds(d, s, Float16(2.0f), VecConfig::flat(1));
  EXPECT_EQ(d.at(0).to_float(), 5.0f);
  vec_.muls(d, s, Float16(4.0f), VecConfig::flat(1));
  EXPECT_EQ(d.at(0).to_float(), 12.0f);
}

TEST_F(VectorUnitTest, CmpvEqProducesIndicator) {
  auto a = alloc_filled(128, 1.0f);
  auto b = alloc_filled(128, 1.0f);
  b.at(5) = Float16(2.0f);
  auto d = ub_.alloc<Float16>(128);
  vec_.cmpv_eq(d, a, b, VecConfig::flat(1));
  EXPECT_EQ(d.at(0).to_float(), 1.0f);
  EXPECT_EQ(d.at(5).to_float(), 0.0f);
}

TEST_F(VectorUnitTest, SelSelectsByCondition) {
  auto cond = alloc_filled(128, 0.0f);
  cond.at(2) = Float16(1.0f);
  auto a = alloc_filled(128, 10.0f);
  auto b = alloc_filled(128, 20.0f);
  auto d = ub_.alloc<Float16>(128);
  vec_.sel(d, cond, a, b, VecConfig::flat(1));
  EXPECT_EQ(d.at(2).to_float(), 10.0f);
  EXPECT_EQ(d.at(3).to_float(), 20.0f);
}

TEST_F(VectorUnitTest, CycleAccounting) {
  auto a = alloc_filled(256, 1.0f);
  auto d = ub_.alloc<Float16>(256);
  VecConfig cfg = VecConfig::flat(2);
  cfg.mask = VecMask::first_n(16);
  vec_.binary(VecOp::kAdd, d, a, a, cfg);
  EXPECT_EQ(ledger_.profile.vec.instrs, 1);
  EXPECT_EQ(ledger_.profile.vec.slots_capacity, 2 * 128);  // two repeats
  EXPECT_EQ(ledger_.profile.vec.slots_used, 32);
  EXPECT_EQ(ledger_.sched.busy(Pipe::kVector), cost_.vec_issue_overhead + 2);
  EXPECT_NEAR(ledger_.profile.vec_lane_utilization(), 16.0 / 128.0, 1e-9);
}

TEST_F(VectorUnitTest, RejectsNonUbOperands) {
  ScratchBuffer l1(BufferKind::kL1, 1024);
  auto bad = l1.alloc<Float16>(128);
  auto ok = ub_.alloc<Float16>(128);
  EXPECT_THROW(vec_.binary(VecOp::kAdd, ok, ok, bad, VecConfig::flat(1)),
               Error);
  EXPECT_THROW(vec_.dup(bad, Float16(), VecConfig::flat(1)), Error);
}

TEST_F(VectorUnitTest, RejectsRepeatOutOfRange) {
  auto a = ub_.alloc<Float16>(128);
  VecConfig cfg = VecConfig::flat(256);  // max_repeat is 255
  EXPECT_THROW(vec_.dup(a, Float16(), cfg), Error);
  cfg.repeat = 0;
  EXPECT_THROW(vec_.dup(a, Float16(), cfg), Error);
}

TEST_F(VectorUnitTest, OutOfBoundsActiveLaneThrows) {
  auto a = ub_.alloc<Float16>(100);  // < 128
  EXPECT_THROW(vec_.dup(a, Float16(), VecConfig::flat(1)), Error);
  // But with a mask covering only the first 100 lanes it is fine.
  VecConfig cfg = VecConfig::flat(1);
  cfg.mask = VecMask::first_n(100);
  vec_.dup(a, Float16(3.0f), cfg);
  EXPECT_EQ(a.at(99).to_float(), 3.0f);
}

// The prefix-mask fast path orders vmax/vmin by a signed-magnitude bits
// key instead of converting to float. Sweep a value set covering every
// encoding class (zeros of both signs, subnormals, normals, infinities,
// NaN) against the fmax16/fmin16 reference -- results must match
// bit-for-bit, including the which-operand-wins tie rule for -0/+0 and
// the "number wins" NaN rule.
TEST_F(VectorUnitTest, MaxMinFastPathMatchesReferenceOnSpecialValues) {
  const std::uint16_t specials[] = {
      0x0000, 0x8000,          // +0, -0
      0x0001, 0x8001, 0x03FF,  // subnormals
      0x0400, 0x8400,          // smallest normals
      0x3C00, 0xBC00,          // +-1
      0x7BFF, 0xFBFF,          // +-max finite
      0x7C00, 0xFC00,          // +-inf
      0x7C01, 0x7E00, 0xFE00,  // NaNs
  };
  const int n = static_cast<int>(std::size(specials));
  auto a = ub_.alloc<Float16>(128);
  auto b = ub_.alloc<Float16>(128);
  auto d = ub_.alloc<Float16>(128);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const Float16 x = Float16::from_bits(specials[i]);
      const Float16 y = Float16::from_bits(specials[j]);
      for (int k = 0; k < 128; ++k) {
        a.at(k) = x;
        b.at(k) = y;
      }
      vec_.binary(VecOp::kMax, d, a, b, VecConfig::flat(1));
      EXPECT_EQ(d.at(0).bits(), fmax16(x, y).bits())
          << "vmax " << specials[i] << " vs " << specials[j];
      vec_.binary(VecOp::kMin, d, a, b, VecConfig::flat(1));
      EXPECT_EQ(d.at(0).bits(), fmin16(x, y).bits())
          << "vmin " << specials[i] << " vs " << specials[j];
    }
  }
}

}  // namespace
}  // namespace davinci
