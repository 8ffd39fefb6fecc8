// Integration tests: full training-style pipelines through the simulator
// (forward + mask + backward), InceptionV3 layer shapes end-to-end, and
// the paper's qualitative performance claims.
#include <gtest/gtest.h>

#include "kernels/conv2d.h"
#include "kernels/pooling.h"
#include "nets/cnn_tables.h"
#include "ref/conv_ref.h"
#include "ref/pooling_ref.h"
#include "test_util.h"

namespace davinci {
namespace {

using akg::PoolImpl;
using kernels::MergeImpl;
using kernels::PoolInputs;
using kernels::PoolOp;
using kernels::PoolOpKind;

// Runs the whole training step for one pooling layer on the simulator
// using the accelerated stack (Im2Col forward + mask, Col2Im backward) and
// validates output and input-gradient against the NCHW fp32 reference.
TEST(Integration, TrainingStepMatchesNchwReference) {
  const Window2d w = Window2d::pool(3, 2);
  TensorF32 in_nchw(Shape{1, 24, 21, 21});
  in_nchw.fill_random_ints(601);
  TensorF32 grad_nchw(Shape{1, 24, 10, 10});
  grad_nchw.fill_random_ints(602, 0, 5);

  Device dev;
  const TensorF16 in = nchw_to_nc1hwc0(in_nchw);
  auto fwd = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxMaskFwd, .window = w,
             .fwd = PoolImpl::kIm2col},
      PoolInputs{.in = &in});
  const TensorF16 grad = nchw_to_nc1hwc0(grad_nchw);
  auto bwd = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxBwd, .window = w,
             .merge = MergeImpl::kCol2im},
      PoolInputs{.mask = &fwd.mask, .grad = &grad, .ih = 21, .iw = 21});

  const TensorF32 want_out = ref::maxpool_fwd_nchw(in_nchw, w);
  const TensorF32 want_gin = ref::maxpool_bwd_nchw(in_nchw, grad_nchw, w);
  testutil::expect_close_f32(nc1hwc0_to_nchw(fwd.out, 24), want_out, 0.0f,
                             "train fwd");
  testutil::expect_close_f32(nc1hwc0_to_nchw(bwd.grad_in, 24), want_gin,
                             0.0f, "train bwd");
}

TEST(Integration, BaselineStackProducesSameResults) {
  // The standard TVM stack (direct forward + vadd merge) must be
  // numerically identical to the accelerated one -- the paper's point is
  // performance, not accuracy.
  const Window2d w = Window2d::pool(3, 2);
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 2, 19, 19, 603);
  TensorF16 grad(Shape{1, 2, 9, 9, kC0});
  grad.fill_random_ints(604, 0, 5);

  Device dev;
  auto f_base = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxMaskFwd, .window = w,
             .fwd = PoolImpl::kDirect},
      PoolInputs{.in = &in});
  auto f_fast = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxMaskFwd, .window = w,
             .fwd = PoolImpl::kIm2col},
      PoolInputs{.in = &in});
  testutil::expect_equal_f16(f_base.out, f_fast.out, "fwd equivalence");

  auto b_base = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxBwd, .window = w,
             .merge = MergeImpl::kVadd},
      PoolInputs{.mask = &f_base.mask, .grad = &grad, .ih = 19, .iw = 19});
  auto b_fast = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxBwd, .window = w,
             .merge = MergeImpl::kCol2im},
      PoolInputs{.mask = &f_fast.mask, .grad = &grad, .ih = 19, .iw = 19});
  testutil::expect_equal_f16(b_base.grad_in, b_fast.grad_in,
                             "bwd equivalence");
}

TEST(Integration, InceptionV3SmallestLayerFullPipeline) {
  // The (35, 35, 288) configuration of Figure 7 end-to-end with real
  // channel count (C1 = 18).
  const auto layer = nets::inception_v3_fig7_layers()[2];
  const Window2d w = layer.window;
  TensorF32 in_nchw(Shape{1, layer.c, layer.h, layer.w});
  in_nchw.fill_random_ints(605, -5, 5);

  Device dev;
  const TensorF16 in = nchw_to_nc1hwc0(in_nchw);
  auto fwd = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
             .fwd = PoolImpl::kIm2col},
      PoolInputs{.in = &in});
  const TensorF32 want = ref::maxpool_fwd_nchw(in_nchw, w);
  testutil::expect_close_f32(nc1hwc0_to_nchw(fwd.out, layer.c), want, 0.0f,
                             "inception 35x35x288");
  // 18 C1 slices over 18 cores.
  EXPECT_EQ(fwd.run.cores_used, 18);
}

TEST(Integration, Figure7SpeedupsHoldOnAllThreeInputs) {
  // The paper's headline: the accelerated implementations win on every
  // Figure 7 input, with the backward gap the largest.
  Device dev;
  for (const auto& layer : nets::inception_v3_fig7_layers()) {
    const Window2d w = layer.window;
    const std::int64_t c1 = c1_of(layer.c);
    const TensorF16 in =
        testutil::random_int_nc1hwc0(1, c1, layer.h, layer.w, 700 + layer.index);

    auto f_base = kernels::run_pool(
        dev,
        PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
               .fwd = PoolImpl::kDirect},
        PoolInputs{.in = &in});
    auto f_fast = kernels::run_pool(
        dev,
        PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
               .fwd = PoolImpl::kIm2col},
        PoolInputs{.in = &in});
    EXPECT_LT(f_fast.cycles(), f_base.cycles())
        << layer.network << " input " << layer.index;

    const TensorF16 mask = ref::maxpool_argmax_mask(in, w);
    TensorF16 grad(Shape{1, c1, w.out_h(layer.h), w.out_w(layer.w), kC0});
    grad.fill_random_ints(800 + static_cast<std::uint64_t>(layer.index), 0, 5);
    auto b_base = kernels::run_pool(
        dev,
        PoolOp{.kind = PoolOpKind::kMaxBwd, .window = w,
               .merge = MergeImpl::kVadd},
        PoolInputs{.mask = &mask, .grad = &grad, .ih = layer.h, .iw = layer.w});
    auto b_fast = kernels::run_pool(
        dev,
        PoolOp{.kind = PoolOpKind::kMaxBwd, .window = w,
               .merge = MergeImpl::kCol2im},
        PoolInputs{.mask = &mask, .grad = &grad, .ih = layer.h, .iw = layer.w});
    EXPECT_LT(b_fast.cycles(), b_base.cycles());

    // Speedup ratios on serial cycles -- the charge model calibrated
    // against the paper's hardware counters; the overlapped makespan
    // shifts forward and backward by different amounts.
    const double fwd_speedup =
        static_cast<double>(f_base.run.device_cycles_serial) /
        static_cast<double>(f_fast.run.device_cycles_serial);
    const double bwd_speedup =
        static_cast<double>(b_base.run.device_cycles_serial) /
        static_cast<double>(b_fast.run.device_cycles_serial);
    // Shape check: meaningful speedups in the single-digit range, with
    // backward the larger one (paper: 3.2x and 5.8x at the largest input).
    EXPECT_GT(fwd_speedup, 1.5) << layer.index;
    EXPECT_LT(fwd_speedup, 20.0) << layer.index;
    EXPECT_GT(bwd_speedup, fwd_speedup) << layer.index;
  }
}

TEST(Integration, ConvThenPoolPipeline) {
  // Convolution (Cube Unit) feeding pooling (Vector Unit): the two
  // consumers of the Im2Col instruction composed, as in a real CNN block.
  Device dev;
  const Window2d cw = Window2d::pool(3, 1);
  const Window2d pw = Window2d::pool(2, 2);
  TensorF32 in_nchw(Shape{1, 16, 12, 12});
  in_nchw.fill_random_ints(606, -2, 2);
  TensorF32 weights(Shape{16, 16, 3, 3});
  weights.fill_random_ints(607, -1, 1);

  const TensorF16 in = nchw_to_nc1hwc0(in_nchw);
  auto conv = kernels::conv2d_cube(dev, in, weights, cw);
  auto pool = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = pw,
             .fwd = PoolImpl::kIm2col},
      PoolInputs{.in = &conv.out});

  const TensorF32 conv_ref = ref::conv2d_nchw(in_nchw, weights, cw);
  // Round the conv reference through fp16 like the stored activation.
  TensorF32 conv_f16(conv_ref.shape());
  for (std::int64_t i = 0; i < conv_ref.size(); ++i) {
    conv_f16.flat(i) = Float16(conv_ref.flat(i)).to_float();
  }
  const TensorF32 want = ref::maxpool_fwd_nchw(conv_f16, pw);
  testutil::expect_close_f32(nc1hwc0_to_nchw(pool.out, 16), want, 0.0f,
                             "conv+pool");
}

TEST(Integration, DeterministicAcrossRuns) {
  // Thread scheduling must not affect results (blocks write disjoint GM).
  const Window2d w = Window2d::pool(3, 2);
  const TensorF16 in = testutil::random_float_nc1hwc0(1, 8, 33, 33, 608);
  Device dev;
  auto a = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
             .fwd = PoolImpl::kIm2col},
      PoolInputs{.in = &in});
  auto b = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
             .fwd = PoolImpl::kIm2col},
      PoolInputs{.in = &in});
  testutil::expect_equal_f16(a.out, b.out, "determinism");
  EXPECT_EQ(a.cycles(), b.cycles());
}

TEST(Integration, CycleCountsAreShapeMonotone) {
  // Bigger inputs cost more cycles for every implementation.
  Device dev;
  const Window2d w = Window2d::pool(3, 2);
  std::int64_t prev_direct = 0, prev_im2col = 0;
  for (std::int64_t h : {9, 17, 33}) {
    const TensorF16 in =
        testutil::random_int_nc1hwc0(1, 1, h, h, 609 + static_cast<std::uint64_t>(h));
    auto d = kernels::run_pool(
        dev,
        PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
               .fwd = PoolImpl::kDirect},
        PoolInputs{.in = &in});
    auto i = kernels::run_pool(
        dev,
        PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
               .fwd = PoolImpl::kIm2col},
        PoolInputs{.in = &in});
    EXPECT_GT(d.cycles(), prev_direct);
    EXPECT_GT(i.cycles(), prev_im2col);
    prev_direct = d.cycles();
    prev_im2col = i.cycles();
  }
}

}  // namespace
}  // namespace davinci
