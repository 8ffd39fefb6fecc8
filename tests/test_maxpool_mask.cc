// Tests for the mask-producing MaxPool forward (Figure 7b).
#include <gtest/gtest.h>

#include "kernels/pooling.h"
#include "ref/pooling_ref.h"
#include "test_util.h"

namespace davinci {
namespace {

using kernels::PoolInputs;
using kernels::PoolOp;
using kernels::PoolOpKind;

using akg::PoolImpl;

// The kernels only define mask values for valid patches (tail fractal rows
// in GM keep their zero initialization); compare the valid region exactly
// and require zero tails.
void check_mask(const TensorF16& got, const TensorF16& want,
                std::int64_t valid_patches, const char* what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  const std::int64_t n = got.shape()[0], c1 = got.shape()[1];
  const std::int64_t kh = got.shape()[2], kw = got.shape()[3];
  const std::int64_t pp = got.shape()[4];
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t q = 0; q < c1; ++q) {
      for (std::int64_t i = 0; i < kh; ++i) {
        for (std::int64_t j = 0; j < kw; ++j) {
          for (std::int64_t p = 0; p < pp; ++p) {
            for (std::int64_t c = 0; c < kC0; ++c) {
              if (p < valid_patches) {
                ASSERT_TRUE(got.at(b, q, i, j, p, c) ==
                            want.at(b, q, i, j, p, c))
                    << what << " at (" << b << "," << q << "," << i << ","
                    << j << "," << p << "," << c << ")";
              } else {
                ASSERT_TRUE(got.at(b, q, i, j, p, c).is_zero())
                    << what << " tail at p=" << p;
              }
            }
          }
        }
      }
    }
  }
}

void check_both_impls(const TensorF16& in, const Window2d& w) {
  Device dev;
  const std::int64_t oh = w.out_h(in.shape()[2]);
  const std::int64_t ow = w.out_w(in.shape()[3]);
  const TensorF16 want_out = ref::maxpool_fwd(in, w);
  const TensorF16 want_mask = ref::maxpool_argmax_mask(in, w);
  for (PoolImpl impl : {PoolImpl::kDirect, PoolImpl::kIm2col}) {
    auto got = kernels::run_pool(
        dev, PoolOp{.kind = PoolOpKind::kMaxMaskFwd, .window = w, .fwd = impl},
        PoolInputs{.in = &in});
    testutil::expect_equal_f16(got.out, want_out, akg::to_string(impl));
    check_mask(got.mask, want_mask, oh * ow, akg::to_string(impl));
  }
}

TEST(MaxpoolMask, SmallStride2) {
  check_both_impls(testutil::random_int_nc1hwc0(1, 1, 9, 9, 201),
                   Window2d::pool(3, 2));
}

TEST(MaxpoolMask, UniqueMaximaFloatData) {
  check_both_impls(testutil::random_float_nc1hwc0(1, 2, 11, 11, 202),
                   Window2d::pool(3, 2));
}

TEST(MaxpoolMask, TiesMarkAllPositions) {
  TensorF16 in(Shape{1, 1, 4, 4, kC0});
  in.fill(Float16(2.0f));
  check_both_impls(in, Window2d::pool(2, 2));
}

TEST(MaxpoolMask, MultiChannelAndBatch) {
  check_both_impls(testutil::random_int_nc1hwc0(2, 3, 9, 9, 203),
                   Window2d::pool(3, 2));
}

TEST(MaxpoolMask, NonOverlappingStride) {
  check_both_impls(testutil::random_int_nc1hwc0(1, 1, 12, 12, 204),
                   Window2d::pool(3, 3));
}

TEST(MaxpoolMask, TiledLargeInput) {
  check_both_impls(testutil::random_int_nc1hwc0(1, 1, 71, 71, 205),
                   Window2d::pool(3, 2));
}

TEST(MaxpoolMask, Im2colWithPadding) {
  Device dev;
  Window2d w = Window2d::pool(3, 2);
  w.pt = w.pb = w.pl = w.pr = 1;
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 9, 9, 206);
  const TensorF16 want_out = ref::maxpool_fwd(in, w);
  const TensorF16 want_mask = ref::maxpool_argmax_mask(in, w);
  auto got = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxMaskFwd, .window = w,
             .fwd = PoolImpl::kIm2col},
      PoolInputs{.in = &in});
  testutil::expect_equal_f16(got.out, want_out, "padded out");
  check_mask(got.mask, want_mask,
             w.out_h(9) * w.out_w(9), "padded mask");
}

TEST(MaxpoolMask, MaskShape) {
  Device dev;
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 2, 9, 9, 207);
  const Window2d w = Window2d::pool(3, 2);
  auto got = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxMaskFwd, .window = w,
             .fwd = PoolImpl::kIm2col},
      PoolInputs{.in = &in});
  // Oh = Ow = 4 -> 16 patches -> PP = 16.
  EXPECT_EQ(got.mask.shape(), Shape({1, 2, 3, 3, 16, kC0}));
}

TEST(MaxpoolMask, Im2colBeatsDirect) {
  // Figure 7b: the gap grows with the mask step because the baseline's
  // comparisons are also 16-lane.
  Device dev;
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 35, 35, 208);
  const Window2d w = Window2d::pool(3, 2);
  auto direct = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxMaskFwd, .window = w,
             .fwd = PoolImpl::kDirect},
      PoolInputs{.in = &in});
  auto im2col = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxMaskFwd, .window = w,
             .fwd = PoolImpl::kIm2col},
      PoolInputs{.in = &in});
  EXPECT_LT(im2col.cycles(), direct.cycles());
}

TEST(MaxpoolMask, EveryPatchHasAtLeastOneMaximum) {
  Device dev;
  const TensorF16 in = testutil::random_float_nc1hwc0(1, 1, 13, 13, 209);
  const Window2d w = Window2d::pool(3, 2);
  auto got = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxMaskFwd, .window = w,
             .fwd = PoolImpl::kIm2col},
      PoolInputs{.in = &in});
  const std::int64_t oh = w.out_h(13), ow = w.out_w(13);
  for (std::int64_t p = 0; p < oh * ow; ++p) {
    for (std::int64_t c = 0; c < kC0; ++c) {
      float sum = 0;
      for (std::int64_t kh = 0; kh < 3; ++kh) {
        for (std::int64_t kw = 0; kw < 3; ++kw) {
          sum += got.mask
                     .at(std::int64_t{0}, std::int64_t{0}, kh, kw, p, c)
                     .to_float();
        }
      }
      EXPECT_GE(sum, 1.0f) << "patch " << p << " lane " << c;
    }
  }
}

TEST(MaxpoolMask, RejectsUnsupportedImpls) {
  Device dev;
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 9, 9, 210);
  EXPECT_THROW(
      kernels::run_pool(dev,
                        PoolOp{.kind = PoolOpKind::kMaxMaskFwd,
                               .window = Window2d::pool(3, 2),
                               .fwd = PoolImpl::kXYSplit},
                        PoolInputs{.in = &in}),
      Error);
}

// run_pool skips check_inputs for a launch that carries a plan, so the
// forward driver itself refuses a lowering that cannot write the mask.
TEST(MaxpoolMask, PlannedLaunchRejectsUnsupportedImpls) {
  Device dev;
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 9, 9, 211);
  const Window2d w = Window2d::pool(3, 2);
  const akg::PoolPlan plan = akg::plan_fwd(PoolImpl::kExpansion, dev.arch(),
                                           w, 9, 9, /*with_mask=*/true);
  EXPECT_THROW(kernels::run_pool(dev,
                                 PoolOp{.kind = PoolOpKind::kMaxMaskFwd,
                                        .window = w,
                                        .fwd = PoolImpl::kExpansion,
                                        .plan = plan},
                                 PoolInputs{.in = &in}),
               Error);
}

}  // namespace
}  // namespace davinci
