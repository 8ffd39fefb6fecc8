// Special-value behaviour end to end: negative-only inputs, fp16
// extremes, signed zeros, and NaN policy through the pooling kernels.
#include <gtest/gtest.h>

#include <limits>

#include "kernels/pooling.h"
#include "ref/pooling_ref.h"
#include "test_util.h"

namespace davinci {
namespace {

using kernels::PoolInputs;
using kernels::PoolOp;
using kernels::PoolOpKind;

using akg::PoolImpl;

TEST(SpecialValues, AllNegativeInputUnpadded) {
  // Without padding the maximum of all-negative data stays negative; the
  // -65504 initializer must never leak into the output.
  Device dev;
  TensorF16 in(Shape{1, 1, 9, 9, kC0});
  Xoshiro256 rng(11);
  for (std::int64_t i = 0; i < in.size(); ++i) {
    in.flat(i) = Float16(-1.0f - static_cast<float>(rng.next_below(100)));
  }
  const Window2d w = Window2d::pool(3, 2);
  for (PoolImpl impl : {PoolImpl::kDirect, PoolImpl::kIm2col,
                        PoolImpl::kExpansion, PoolImpl::kXYSplit}) {
    auto got = kernels::run_pool(
        dev, PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w, .fwd = impl},
        PoolInputs{.in = &in});
    for (std::int64_t i = 0; i < got.out.size(); ++i) {
      EXPECT_LT(got.out.flat(i).to_float(), 0.0f) << akg::to_string(impl);
      EXPECT_GT(got.out.flat(i).to_float(), -102.0f);
    }
  }
}

TEST(SpecialValues, MaxFiniteValuesSurvive) {
  Device dev;
  TensorF16 in(Shape{1, 1, 8, 8, kC0});
  in.fill(Float16(1.0f));
  for (std::int64_t c = 0; c < kC0; ++c) {
    in.at(std::int64_t{0}, std::int64_t{0}, std::int64_t{3}, std::int64_t{3},
          c) = Float16::max_finite();
  }
  const Window2d w = Window2d::pool(2, 2);
  auto got = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
             .fwd = PoolImpl::kIm2col},
      PoolInputs{.in = &in});
  EXPECT_EQ(got.out
                .at(std::int64_t{0}, std::int64_t{0}, std::int64_t{1},
                    std::int64_t{1}, std::int64_t{0})
                .to_float(),
            65504.0f);
}

TEST(SpecialValues, SignedZerosCompareEqual) {
  // A patch of {-0, +0}: the max is zero either way and the eq-mask marks
  // both positions (+0 == -0 in IEEE comparison).
  TensorF16 in(Shape{1, 1, 2, 2, kC0});
  in.at(std::int64_t{0}, std::int64_t{0}, std::int64_t{0}, std::int64_t{0},
        std::int64_t{0}) = Float16(-0.0f);
  const Window2d w = Window2d::pool(2, 2);
  const TensorF16 mask = ref::maxpool_argmax_mask(in, w);
  float marked = 0;
  for (std::int64_t kh = 0; kh < 2; ++kh) {
    for (std::int64_t kw = 0; kw < 2; ++kw) {
      marked += mask.at(std::int64_t{0}, std::int64_t{0}, kh, kw,
                        std::int64_t{0}, std::int64_t{0})
                    .to_float();
    }
  }
  EXPECT_EQ(marked, 4.0f);
}

TEST(SpecialValues, NanLosesAgainstNumbersInMax) {
  // Hardware vmax "number wins" semantics: a NaN lane never becomes the
  // patch maximum when any finite value is present.
  Device dev;
  TensorF16 in(Shape{1, 1, 4, 4, kC0});
  in.fill(Float16(2.0f));
  for (std::int64_t c = 0; c < kC0; ++c) {
    in.at(std::int64_t{0}, std::int64_t{0}, std::int64_t{1}, std::int64_t{1},
          c) = Float16(std::numeric_limits<float>::quiet_NaN());
  }
  const Window2d w = Window2d::pool(2, 2);
  for (PoolImpl impl : {PoolImpl::kDirect, PoolImpl::kIm2col}) {
    auto got = kernels::run_pool(
        dev, PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w, .fwd = impl},
        PoolInputs{.in = &in});
    for (std::int64_t i = 0; i < got.out.size(); ++i) {
      EXPECT_FALSE(got.out.flat(i).is_nan()) << akg::to_string(impl);
      EXPECT_EQ(got.out.flat(i).to_float(), 2.0f);
    }
  }
}

TEST(SpecialValues, LargeMagnitudeAvgpoolSaturatesGracefully) {
  // Summing Kh*Kw max-finite values overflows fp16 to +inf before the
  // division; the kernel and the reference must agree on that behaviour.
  Device dev;
  TensorF16 in(Shape{1, 1, 4, 4, kC0});
  in.fill(Float16::max_finite());
  const Window2d w = Window2d::pool(2, 2);
  auto got = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kAvgFwd, .window = w,
             .fwd = PoolImpl::kIm2col},
      PoolInputs{.in = &in});
  const TensorF16 want = ref::avgpool_fwd(in, w);
  testutil::expect_equal_f16(got.out, want, "saturating avgpool");
  EXPECT_TRUE(got.out.flat(0).is_inf());
}

TEST(SpecialValues, SubnormalInputsPreserved) {
  Device dev;
  TensorF16 in(Shape{1, 1, 4, 4, kC0});
  const Float16 tiny = Float16::from_bits(0x0001);  // smallest subnormal
  in.fill(Float16(-1.0f));
  for (std::int64_t c = 0; c < kC0; ++c) {
    in.at(std::int64_t{0}, std::int64_t{0}, std::int64_t{0}, std::int64_t{1},
          c) = tiny;
  }
  const Window2d w = Window2d::pool(2, 2);
  auto got = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
             .fwd = PoolImpl::kIm2col},
      PoolInputs{.in = &in});
  EXPECT_EQ(got.out.flat(0).bits(), tiny.bits());
}

TEST(SpecialValues, BackwardWithNegativeGradients) {
  Device dev;
  const Window2d w = Window2d::pool(3, 2);
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 9, 9, 971);
  const TensorF16 mask = ref::maxpool_argmax_mask(in, w);
  TensorF16 grad(Shape{1, 1, 4, 4, kC0});
  grad.fill_random_ints(972, -8, -1);  // strictly negative
  const TensorF16 want = ref::maxpool_bwd(mask, grad, w, 9, 9);
  auto got = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxBwd, .window = w,
             .merge = kernels::MergeImpl::kCol2im},
      PoolInputs{.mask = &mask, .grad = &grad, .ih = 9, .iw = 9});
  testutil::expect_equal_f16(got.grad_in, want, "negative gradients");
}

}  // namespace
}  // namespace davinci
