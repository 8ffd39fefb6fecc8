// Tests for the AvgPool kernels (Section V-C).
#include <gtest/gtest.h>

#include "kernels/pooling.h"
#include "ref/pooling_ref.h"
#include "test_util.h"

namespace davinci {
namespace {

using akg::PoolImpl;
using kernels::MergeImpl;
using kernels::PoolInputs;
using kernels::PoolOp;
using kernels::PoolOpKind;

void check_fwd(const TensorF16& in, const Window2d& w) {
  Device dev;
  const TensorF16 want = ref::avgpool_fwd(in, w);
  for (PoolImpl impl : {PoolImpl::kDirect, PoolImpl::kIm2col}) {
    auto got = kernels::run_pool(
        dev, PoolOp{.kind = PoolOpKind::kAvgFwd, .window = w, .fwd = impl},
        PoolInputs{.in = &in});
    testutil::expect_equal_f16(got.out, want, akg::to_string(impl));
  }
}

void check_bwd(std::int64_t n, std::int64_t c1, std::int64_t h,
               std::int64_t w_, const Window2d& w, std::uint64_t seed) {
  Device dev;
  TensorF16 grad(Shape{n, c1, w.out_h(h), w.out_w(w_), kC0});
  grad.fill_random_ints(seed, -8, 8);
  const TensorF16 want = ref::avgpool_bwd(grad, w, h, w_);
  auto vadd = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kAvgBwd, .window = w,
             .merge = MergeImpl::kVadd},
      PoolInputs{.grad = &grad, .ih = h, .iw = w_});
  testutil::expect_equal_f16(vadd.grad_in, want, "avg vadd");
  auto col2im = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kAvgBwd, .window = w,
             .merge = MergeImpl::kCol2im},
      PoolInputs{.grad = &grad, .ih = h, .iw = w_});
  testutil::expect_equal_f16(col2im.grad_in, want, "avg col2im");
}

TEST(AvgpoolForward, Kernel2Stride2Exact) {
  // 1/(2*2) = 0.25 is a power of two: fp16-exact on integer data.
  check_fwd(testutil::random_int_nc1hwc0(1, 1, 12, 12, 401),
            Window2d::pool(2, 2));
}

TEST(AvgpoolForward, Kernel4Stride4Exact) {
  check_fwd(testutil::random_int_nc1hwc0(1, 1, 16, 16, 402),
            Window2d::pool(4, 4));
}

TEST(AvgpoolForward, Kernel3Stride2) {
  // 1/9 rounds in fp16 but both kernel and reference round identically.
  check_fwd(testutil::random_int_nc1hwc0(1, 2, 11, 11, 403),
            Window2d::pool(3, 2));
}

TEST(AvgpoolForward, Stride1) {
  check_fwd(testutil::random_int_nc1hwc0(1, 1, 9, 9, 404),
            Window2d::pool(2, 1));
}

TEST(AvgpoolForward, BatchAndChannels) {
  check_fwd(testutil::random_int_nc1hwc0(2, 3, 8, 8, 405),
            Window2d::pool(2, 2));
}

TEST(AvgpoolForward, TiledLargeInput) {
  check_fwd(testutil::random_int_nc1hwc0(1, 1, 147, 147, 406),
            Window2d::pool(3, 2));
}

TEST(AvgpoolForward, Im2colWithPadding) {
  Device dev;
  Window2d w = Window2d::pool(3, 2);
  w.pt = w.pb = w.pl = w.pr = 1;
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 9, 9, 407);
  const TensorF16 want = ref::avgpool_fwd(in, w);
  auto got = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kAvgFwd, .window = w,
             .fwd = PoolImpl::kIm2col},
      PoolInputs{.in = &in});
  testutil::expect_equal_f16(got.out, want, "avg padded");
}

TEST(AvgpoolForward, ConstantInputGivesConstantOutput) {
  Device dev;
  TensorF16 in(Shape{1, 1, 8, 8, kC0});
  in.fill(Float16(4.0f));
  auto got = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kAvgFwd, .window = Window2d::pool(2, 2),
             .fwd = PoolImpl::kIm2col},
      PoolInputs{.in = &in});
  for (std::int64_t i = 0; i < got.out.size(); ++i) {
    EXPECT_EQ(got.out.flat(i).to_float(), 4.0f);
  }
}

TEST(AvgpoolForward, Im2colBeatsDirectAtStride2) {
  Device dev;
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 35, 35, 408);
  const Window2d w = Window2d::pool(3, 2);
  auto direct = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kAvgFwd, .window = w,
             .fwd = PoolImpl::kDirect},
      PoolInputs{.in = &in});
  auto im2col = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kAvgFwd, .window = w,
             .fwd = PoolImpl::kIm2col},
      PoolInputs{.in = &in});
  EXPECT_LT(im2col.cycles(), direct.cycles());
}

TEST(AvgpoolBackward, Kernel2Stride2) {
  check_bwd(1, 1, 10, 10, Window2d::pool(2, 2), 411);
}

TEST(AvgpoolBackward, OverlappingKernel3Stride2) {
  check_bwd(1, 1, 9, 9, Window2d::pool(3, 2), 412);
}

TEST(AvgpoolBackward, Stride1) {
  check_bwd(1, 1, 8, 8, Window2d::pool(2, 1), 413);
}

TEST(AvgpoolBackward, BatchAndChannels) {
  check_bwd(2, 2, 9, 9, Window2d::pool(3, 2), 414);
}

TEST(AvgpoolBackward, TiledLargeInputExactScale) {
  // K4 S2 still produces tile seams (Kh - Sh = 2 shared rows) but the
  // 1/16 scale is a power of two, so integer gradients stay fp16-exact
  // through any summation order.
  check_bwd(1, 1, 146, 146, Window2d::pool(4, 2), 415);
}

TEST(AvgpoolBackward, TiledLargeInputInexactScaleWithinUlp) {
  // With the 1/9 scale the seam accumulation reassociates rounded fp16
  // adds, so tile boundaries may differ from the reference by an ulp.
  Device dev;
  const Window2d w = Window2d::pool(3, 2);
  TensorF16 grad(Shape{1, 1, 73, 73, kC0});
  grad.fill_random_ints(419, -8, 8);
  const TensorF16 want = ref::avgpool_bwd(grad, w, 147, 147);
  auto got = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kAvgBwd, .window = w,
             .merge = MergeImpl::kCol2im},
      PoolInputs{.grad = &grad, .ih = 147, .iw = 147});
  testutil::expect_close_f16(got.grad_in, want, 2e-3f, "avg tiled 1/9");
}

TEST(AvgpoolBackward, WithPadding) {
  Window2d w = Window2d::pool(3, 2);
  w.pt = w.pb = w.pl = w.pr = 1;
  check_bwd(1, 1, 9, 9, w, 416);
}

TEST(AvgpoolBackward, GradientConservationKernel4) {
  // 1/16 is exact; every gradient value is spread over exactly Kh*Kw
  // positions (no padding, disjoint patches) -> mass conserved.
  Device dev;
  const Window2d w = Window2d::pool(4, 4);
  TensorF16 grad(Shape{1, 1, 2, 2, kC0});
  grad.fill_random_ints(417, -8, 8);
  auto r = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kAvgBwd, .window = w,
             .merge = MergeImpl::kCol2im},
      PoolInputs{.grad = &grad, .ih = 8, .iw = 8});
  float got = 0, want = 0;
  for (std::int64_t i = 0; i < r.grad_in.size(); ++i) {
    got += r.grad_in.flat(i).to_float();
  }
  for (std::int64_t i = 0; i < grad.size(); ++i) {
    want += grad.flat(i).to_float();
  }
  EXPECT_EQ(got, want);
}

TEST(AvgpoolBackward, Col2imBeatsVadd) {
  Device dev;
  const Window2d w = Window2d::pool(3, 2);
  TensorF16 grad(Shape{1, 1, 17, 17, kC0});
  grad.fill_random_ints(418, 0, 5);
  auto vadd = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kAvgBwd, .window = w,
             .merge = MergeImpl::kVadd},
      PoolInputs{.grad = &grad, .ih = 35, .iw = 35});
  auto col2im = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kAvgBwd, .window = w,
             .merge = MergeImpl::kCol2im},
      PoolInputs{.grad = &grad, .ih = 35, .iw = 35});
  EXPECT_LT(col2im.cycles(), vadd.cycles());
}

// Section V-C: "the equivalent mask for Avgpool contains 1 in all its
// positions". kAvgBwd(grad) must equal kMaxBwd run with an all-ones mask
// over the valid patch rows and the gradient pre-scaled to
// fp16(grad * fp16(1/(Kh*Kw))), under both merges and both buffering
// modes. Compared element by element with ==, so +0 and -0 agree.
void check_avg_is_max_with_ones(std::int64_t h, const Window2d& w,
                                std::uint64_t seed) {
  const std::int64_t c1 = 2, oh = w.out_h(h), ow = w.out_w(h);
  TensorF16 grad(Shape{1, c1, oh, ow, kC0});
  grad.fill_random_ints(seed, -8, 8);
  const float inv =
      Float16(1.0f / static_cast<float>(w.kh * w.kw)).to_float();
  TensorF16 scaled(grad.shape());
  for (std::int64_t i = 0; i < grad.size(); ++i) {
    scaled.flat(i) = Float16(grad.flat(i).to_float() * inv);
  }
  const std::int64_t pp = round_up(oh * ow, kFractalRows);
  TensorF16 ones(Shape{1, c1, w.kh, w.kw, pp, kC0});
  for (std::int64_t plane = 0; plane < c1 * w.kh * w.kw; ++plane) {
    for (std::int64_t i = 0; i < oh * ow * kC0; ++i) {
      ones.flat(plane * pp * kC0 + i) = Float16(1.0f);
    }
  }
  for (bool db : {true, false}) {
    for (MergeImpl merge : {MergeImpl::kVadd, MergeImpl::kCol2im}) {
      SCOPED_TRACE(std::string(kernels::to_string(merge)) +
                   (db ? " double-buffered" : " serial"));
      Device dev;
      dev.set_double_buffer(db);
      auto avg = kernels::run_pool(
          dev,
          PoolOp{.kind = PoolOpKind::kAvgBwd, .window = w, .merge = merge},
          PoolInputs{.grad = &grad, .ih = h, .iw = h});
      auto max = kernels::run_pool(
          dev,
          PoolOp{.kind = PoolOpKind::kMaxBwd, .window = w, .merge = merge},
          PoolInputs{.mask = &ones, .grad = &scaled, .ih = h, .iw = h});
      testutil::expect_equal_f16(avg.grad_in, max.grad_in, "avg vs max");
    }
  }
}

TEST(AvgpoolBackward, IsMaxpoolBackwardWithAllOnesMaskK2S2) {
  check_avg_is_max_with_ones(12, Window2d::pool(2, 2), 421);
}

TEST(AvgpoolBackward, IsMaxpoolBackwardWithAllOnesMaskPaddedK3S2) {
  Window2d w = Window2d::pool(3, 2);
  w.pt = w.pb = w.pl = w.pr = 1;
  check_avg_is_max_with_ones(17, w, 422);
}

TEST(AvgpoolBackward, IsMaxpoolBackwardWithAllOnesMaskTiledK3S2) {
  // 147x147 H-tiles with one seam row between tiles.
  check_avg_is_max_with_ones(147, Window2d::pool(3, 2), 423);
}

}  // namespace
}  // namespace davinci
