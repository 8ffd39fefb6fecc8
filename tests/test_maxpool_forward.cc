// End-to-end tests of the MaxPool forward kernels on the simulated device,
// validated bit-exactly against the reference (integer-valued fp16 data
// makes every implementation's arithmetic exact).
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

constexpr PoolImpl kAllImpls[] = {PoolImpl::kDirect, PoolImpl::kIm2col,
                                  PoolImpl::kExpansion, PoolImpl::kXYSplit};

void check_all_impls(const TensorF16& in, const Window2d& w) {
  Device dev;
  const TensorF16 want = ref::maxpool_fwd(in, w);
  for (PoolImpl impl : kAllImpls) {
    auto got = kernels::run_pool(
        dev, PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w, .fwd = impl},
        PoolInputs{.in = &in});
    testutil::expect_equal_f16(got.out, want, akg::to_string(impl));
    EXPECT_GT(got.cycles(), 0);
  }
}

TEST(MaxpoolForward, SmallStride2) {
  check_all_impls(testutil::random_int_nc1hwc0(1, 1, 9, 9, 101),
                  Window2d::pool(3, 2));
}

TEST(MaxpoolForward, Stride1) {
  check_all_impls(testutil::random_int_nc1hwc0(1, 1, 10, 10, 102),
                  Window2d::pool(3, 1));
}

TEST(MaxpoolForward, Stride3NoOverlap) {
  check_all_impls(testutil::random_int_nc1hwc0(1, 1, 12, 12, 103),
                  Window2d::pool(3, 3));
}

TEST(MaxpoolForward, Kernel2Stride2VGGStyle) {
  check_all_impls(testutil::random_int_nc1hwc0(1, 1, 16, 16, 104),
                  Window2d::pool(2, 2));
}

TEST(MaxpoolForward, AsymmetricKernelAndStride) {
  Window2d w;
  w.kh = 2;
  w.kw = 4;
  w.sh = 3;
  w.sw = 2;
  check_all_impls(testutil::random_int_nc1hwc0(1, 1, 11, 14, 105), w);
}

TEST(MaxpoolForward, NonSquareInput) {
  check_all_impls(testutil::random_int_nc1hwc0(1, 1, 7, 19, 106),
                  Window2d::pool(3, 2));
}

TEST(MaxpoolForward, MultiChannelC1) {
  check_all_impls(testutil::random_int_nc1hwc0(1, 4, 9, 9, 107),
                  Window2d::pool(3, 2));
}

TEST(MaxpoolForward, BatchedN2) {
  check_all_impls(testutil::random_int_nc1hwc0(2, 2, 9, 9, 108),
                  Window2d::pool(3, 2));
}

TEST(MaxpoolForward, LargeInputRequiresTiling) {
  // (147, 147): forces H-tiling in every implementation.
  Device dev;
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 147, 147, 109);
  const Window2d w = Window2d::pool(3, 2);
  const TensorF16 want = ref::maxpool_fwd(in, w);
  for (PoolImpl impl : {PoolImpl::kDirect, PoolImpl::kIm2col}) {
    auto got = kernels::run_pool(
        dev, PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w, .fwd = impl},
        PoolInputs{.in = &in});
    testutil::expect_equal_f16(got.out, want, akg::to_string(impl));
  }
}

TEST(MaxpoolForward, Im2colSupportsPadding) {
  Device dev;
  Window2d w = Window2d::pool(3, 2);
  w.pt = w.pb = w.pl = w.pr = 1;
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 2, 11, 11, 110);
  const TensorF16 want = ref::maxpool_fwd(in, w);
  auto got = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
             .fwd = PoolImpl::kIm2col},
      PoolInputs{.in = &in});
  testutil::expect_equal_f16(got.out, want, "im2col padded");
}

TEST(MaxpoolForward, PaddedAndTiled) {
  Device dev;
  Window2d w = Window2d::pool(3, 2);
  w.pt = w.pb = 1;
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 145, 145, 111);
  const TensorF16 want = ref::maxpool_fwd(in, w);
  auto got = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
             .fwd = PoolImpl::kIm2col},
      PoolInputs{.in = &in});
  testutil::expect_equal_f16(got.out, want, "im2col padded tiled");
}

TEST(MaxpoolForward, DirectRejectsPadding) {
  Device dev;
  Window2d w = Window2d::pool(3, 2);
  w.pt = 1;
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 9, 9, 112);
  for (PoolImpl impl :
       {PoolImpl::kDirect, PoolImpl::kExpansion, PoolImpl::kXYSplit}) {
    EXPECT_THROW(
        kernels::run_pool(
            dev,
            PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w, .fwd = impl},
            PoolInputs{.in = &in}),
        Error);
  }
}

TEST(MaxpoolForward, FloatDataAlsoExact) {
  // max is exact in fp16 even on arbitrary values.
  Device dev;
  const TensorF16 in = testutil::random_float_nc1hwc0(1, 2, 13, 13, 113);
  const Window2d w = Window2d::pool(3, 2);
  const TensorF16 want = ref::maxpool_fwd(in, w);
  for (PoolImpl impl : kAllImpls) {
    auto got = kernels::run_pool(
        dev, PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w, .fwd = impl},
        PoolInputs{.in = &in});
    testutil::expect_equal_f16(got.out, want, akg::to_string(impl));
  }
}

TEST(MaxpoolForward, Im2colBeatsDirectAtStride2) {
  // The paper's core claim (Figure 7a / 8b): with overlap and a strided
  // layout, the Im2Col-based kernel wins.
  Device dev;
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 35, 35, 114);
  const Window2d w = Window2d::pool(3, 2);
  auto direct = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
             .fwd = PoolImpl::kDirect},
      PoolInputs{.in = &in});
  auto im2col = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
             .fwd = PoolImpl::kIm2col},
      PoolInputs{.in = &in});
  EXPECT_LT(im2col.cycles(), direct.cycles());
}

TEST(MaxpoolForward, DirectWinsAtStride1) {
  // Figure 8a: at stride (1,1) the direct lowering saturates the mask and
  // pays no transformation, so it is fastest.
  Device dev;
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 27, 27, 115);
  const Window2d w = Window2d::pool(3, 1);
  auto direct = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
             .fwd = PoolImpl::kDirect},
      PoolInputs{.in = &in});
  auto im2col = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
             .fwd = PoolImpl::kIm2col},
      PoolInputs{.in = &in});
  auto expansion = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
             .fwd = PoolImpl::kExpansion},
      PoolInputs{.in = &in});
  EXPECT_LT(direct.cycles(), im2col.cycles());
  EXPECT_LT(direct.cycles(), expansion.cycles());
}

TEST(MaxpoolForward, LaneUtilizationExplainsTheWin) {
  // The mechanism the paper describes: the direct kernel activates only
  // C0 = 16 of 128 lanes; the im2col kernel saturates the mask.
  Device dev;
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 33, 33, 116);
  const Window2d w = Window2d::pool(3, 2);
  auto direct = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
             .fwd = PoolImpl::kDirect},
      PoolInputs{.in = &in});
  auto im2col = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
             .fwd = PoolImpl::kIm2col},
      PoolInputs{.in = &in});
  EXPECT_LT(direct.run.profile.vec_lane_utilization(), 0.3);
  EXPECT_GT(im2col.run.profile.vec_lane_utilization(), 0.9);
  // And the instruction count collapses from ~Oh*Ow*Kh to ~Kh*Kw.
  EXPECT_GT(direct.run.profile.vec.instrs, 10 * im2col.run.profile.vec.instrs);
}

TEST(MaxpoolForward, C1ParallelizesAcrossCores) {
  Device dev;
  const TensorF16 in1 = testutil::random_int_nc1hwc0(1, 1, 21, 21, 117);
  const TensorF16 in8 = testutil::random_int_nc1hwc0(1, 8, 21, 21, 117);
  const Window2d w = Window2d::pool(3, 2);
  auto r1 = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
             .fwd = PoolImpl::kIm2col},
      PoolInputs{.in = &in1});
  auto r8 = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
             .fwd = PoolImpl::kIm2col},
      PoolInputs{.in = &in8});
  // 8 slices on 8 cores: device time grows far less than 8x.
  EXPECT_LT(r8.cycles(), 2 * r1.cycles());
  EXPECT_EQ(r8.run.cores_used, 8);
}

TEST(MaxpoolForward, RejectsNonFractalInput) {
  Device dev;
  TensorF16 bad(Shape{4, 4});
  EXPECT_THROW(
      kernels::run_pool(
          dev,
          PoolOp{.kind = PoolOpKind::kMaxFwd, .window = Window2d::pool(2, 2),
                 .fwd = PoolImpl::kDirect},
          PoolInputs{.in = &bad}),
      Error);
}

}  // namespace
}  // namespace davinci
