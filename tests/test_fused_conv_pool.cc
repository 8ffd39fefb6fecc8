// Tests for the fused Conv+AvgPool extension (paper Section VIII future
// work): the composite-kernel convolution must match the two-stage
// pipeline numerically, and run in fewer cycles.
#include "kernels/fused_conv_pool.h"

#include <gtest/gtest.h>

#include "kernels/pooling.h"
#include "ref/conv_ref.h"
#include "ref/pooling_ref.h"
#include "test_util.h"

namespace davinci {
namespace {

using kernels::PoolInputs;
using kernels::PoolOp;
using kernels::PoolOpKind;

TEST(FusedConvPool, FusedWindowGeometry) {
  const Window2d conv = Window2d::pool(3, 1);
  const Window2d pool = Window2d::pool(2, 2);
  const Window2d f = kernels::fused_window(conv, pool);
  EXPECT_EQ(f.kh, 4);  // (2-1)*1 + 3
  EXPECT_EQ(f.kw, 4);
  EXPECT_EQ(f.sh, 2);
  EXPECT_EQ(f.sw, 2);

  Window2d conv2 = Window2d::pool(3, 2);
  const Window2d f2 = kernels::fused_window(conv2, pool);
  EXPECT_EQ(f2.kh, 5);  // (2-1)*2 + 3
  EXPECT_EQ(f2.sh, 4);
}

TEST(FusedConvPool, CompositeWeightsSumRule) {
  // Composite weights must sum to sum(W) (each original weight appears
  // Ph*Pw times scaled by 1/(Ph*Pw)).
  TensorF32 w(Shape{2, 3, 3, 3});
  w.fill_random_ints(61, -3, 3);
  const Window2d conv = Window2d::pool(3, 1);
  const Window2d pool = Window2d::pool(2, 2);
  const TensorF32 comp =
      kernels::compose_conv_avgpool_weights(w, conv, pool);
  EXPECT_EQ(comp.shape(), Shape({2, 3, 4, 4}));
  for (std::int64_t f = 0; f < 2; ++f) {
    for (std::int64_t c = 0; c < 3; ++c) {
      float a = 0, b = 0;
      for (std::int64_t i = 0; i < 9; ++i) {
        a += w.flat((f * 3 + c) * 9 + i);
      }
      for (std::int64_t i = 0; i < 16; ++i) {
        b += comp.flat((f * 3 + c) * 16 + i);
      }
      EXPECT_NEAR(a, b, 1e-4f);
    }
  }
}

TEST(FusedConvPool, CompositeEqualsTwoStageReference) {
  // fp32 reference check of the algebra: conv then avgpool equals the
  // composite convolution exactly (integer data keeps fp32 sums exact up
  // to the 1/(Ph*Pw) scale, so compare with a tiny tolerance).
  TensorF32 in(Shape{1, 3, 11, 11});
  in.fill_random_ints(62, -3, 3);
  TensorF32 w(Shape{4, 3, 3, 3});
  w.fill_random_ints(63, -2, 2);
  const Window2d conv = Window2d::pool(3, 2);
  const Window2d pool = Window2d::pool(2, 2);

  const TensorF32 stage1 = ref::conv2d_nchw(in, w, conv);
  TensorF16 s1f(Shape{1, 1, 1, 1, 1});  // unused; avoid fp16 path here
  (void)s1f;
  // avgpool in fp32.
  const std::int64_t oh = pool.out_h(stage1.shape()[2]);
  const std::int64_t ow = pool.out_w(stage1.shape()[3]);
  TensorF32 two_stage(Shape{1, 4, oh, ow});
  for (std::int64_t f = 0; f < 4; ++f) {
    for (std::int64_t i = 0; i < oh; ++i) {
      for (std::int64_t j = 0; j < ow; ++j) {
        float s = 0;
        for (std::int64_t a = 0; a < 2; ++a) {
          for (std::int64_t b = 0; b < 2; ++b) {
            s += stage1.at(std::int64_t{0}, f, i * 2 + a, j * 2 + b);
          }
        }
        two_stage.at(std::int64_t{0}, f, i, j) = s / 4.0f;
      }
    }
  }

  const TensorF32 comp = kernels::compose_conv_avgpool_weights(w, conv, pool);
  const TensorF32 fused =
      ref::conv2d_nchw(in, comp, kernels::fused_window(conv, pool));
  testutil::expect_close_f32(fused, two_stage, 1e-3f, "fusion algebra");
}

TEST(FusedConvPool, KernelMatchesTwoStagePipeline) {
  // On the simulator: fused Cube pass vs conv2d_cube + avgpool_forward.
  // fp16 rounding points differ slightly between the two paths, so
  // compare within a few fp16 ulps of the magnitudes involved.
  TensorF32 in_nchw(Shape{1, 16, 14, 14});
  in_nchw.fill_random_ints(64, -2, 2);
  TensorF32 w(Shape{16, 16, 3, 3});
  w.fill_random_ints(65, -1, 1);
  const Window2d conv = Window2d::pool(3, 1);
  const Window2d pool = Window2d::pool(2, 2);

  Device dev;
  const TensorF16 in = nchw_to_nc1hwc0(in_nchw);
  auto conv_r = kernels::conv2d_cube(dev, in, w, conv);
  auto pool_r = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kAvgFwd, .window = pool,
             .fwd = akg::PoolImpl::kIm2col},
      PoolInputs{.in = &conv_r.out});
  auto fused = kernels::conv2d_avgpool_fused(dev, in, w, conv, pool);

  ASSERT_EQ(fused.out.shape(), pool_r.out.shape());
  for (std::int64_t i = 0; i < fused.out.size(); ++i) {
    EXPECT_NEAR(fused.out.flat(i).to_float(), pool_r.out.flat(i).to_float(),
                0.5f)
        << "element " << i;
  }
}

TEST(FusedConvPool, FusedIsFasterThanTwoStage) {
  TensorF32 in_nchw(Shape{1, 16, 22, 22});
  in_nchw.fill_random_ints(66, -2, 2);
  TensorF32 w(Shape{16, 16, 3, 3});
  w.fill_random_ints(67, -1, 1);
  const Window2d conv = Window2d::pool(3, 1);
  const Window2d pool = Window2d::pool(2, 2);

  Device dev;
  const TensorF16 in = nchw_to_nc1hwc0(in_nchw);
  auto conv_r = kernels::conv2d_cube(dev, in, w, conv);
  auto pool_r = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kAvgFwd, .window = pool,
             .fwd = akg::PoolImpl::kIm2col},
      PoolInputs{.in = &conv_r.out});
  auto fused = kernels::conv2d_avgpool_fused(dev, in, w, conv, pool);
  EXPECT_LT(fused.cycles(), conv_r.cycles() + pool_r.cycles());
}

TEST(FusedConvPool, RejectsPadding) {
  Window2d conv = Window2d::pool(3, 1);
  conv.pt = 1;
  EXPECT_THROW(kernels::fused_window(conv, Window2d::pool(2, 2)), Error);
}

TEST(FusedConvPool, RejectsNonTilingGrids) {
  Device dev;
  // 12x12 with K3 S2 -> (12-3) % 2 != 0: floor mismatch possible.
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 12, 12, 68);
  TensorF32 w(Shape{16, 16, 3, 3});
  EXPECT_THROW(kernels::conv2d_avgpool_fused(dev, in, w, Window2d::pool(3, 2),
                                             Window2d::pool(2, 2)),
               Error);
}

}  // namespace
}  // namespace davinci
