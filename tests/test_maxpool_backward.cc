// Tests for the MaxPool backward kernels (Figure 7c): the vadd baseline
// and the Col2Im merge must agree with the reference and with each other.
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

struct BwdCase {
  TensorF16 mask;
  TensorF16 grad;
  TensorF16 want;
};

BwdCase make_case(std::int64_t n, std::int64_t c1, std::int64_t h,
                  std::int64_t w_, const Window2d& w, std::uint64_t seed) {
  BwdCase c;
  const TensorF16 in = testutil::random_int_nc1hwc0(n, c1, h, w_, seed);
  c.mask = ref::maxpool_argmax_mask(in, w);
  c.grad = TensorF16(Shape{n, c1, w.out_h(h), w.out_w(w_), kC0});
  c.grad.fill_random_ints(seed + 1, 0, 6);
  c.want = ref::maxpool_bwd(c.mask, c.grad, w, h, w_);
  return c;
}

void check_both(std::int64_t n, std::int64_t c1, std::int64_t h,
                std::int64_t w_, const Window2d& w, std::uint64_t seed) {
  Device dev;
  const BwdCase c = make_case(n, c1, h, w_, w, seed);
  auto vadd = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxBwd, .window = w,
             .merge = MergeImpl::kVadd},
      PoolInputs{.mask = &c.mask, .grad = &c.grad, .ih = h, .iw = w_});
  testutil::expect_equal_f16(vadd.grad_in, c.want, "vadd merge");
  auto col2im = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxBwd, .window = w,
             .merge = MergeImpl::kCol2im},
      PoolInputs{.mask = &c.mask, .grad = &c.grad, .ih = h, .iw = w_});
  testutil::expect_equal_f16(col2im.grad_in, c.want, "col2im merge");
}

TEST(MaxpoolBackward, SmallStride2) {
  check_both(1, 1, 9, 9, Window2d::pool(3, 2), 301);
}

TEST(MaxpoolBackward, OverlappingStride1) {
  check_both(1, 1, 8, 8, Window2d::pool(3, 1), 302);
}

TEST(MaxpoolBackward, NonOverlappingStride3) {
  check_both(1, 1, 12, 12, Window2d::pool(3, 3), 303);
}

TEST(MaxpoolBackward, VGGStyleKernel2) {
  check_both(1, 2, 12, 12, Window2d::pool(2, 2), 304);
}

TEST(MaxpoolBackward, AsymmetricWindow) {
  Window2d w;
  w.kh = 3;
  w.kw = 2;
  w.sh = 2;
  w.sw = 3;
  check_both(1, 1, 11, 14, w, 305);
}

TEST(MaxpoolBackward, MultiChannelAndBatch) {
  check_both(2, 3, 9, 9, Window2d::pool(3, 2), 306);
}

TEST(MaxpoolBackward, NonSquare) {
  check_both(1, 1, 7, 21, Window2d::pool(3, 2), 307);
}

TEST(MaxpoolBackward, TiledLargeInput) {
  // 147x147 forces H-tiling with seam accumulation (Kh - Sh = 1 shared
  // row between adjacent tiles).
  check_both(1, 1, 147, 147, Window2d::pool(3, 2), 308);
}

TEST(MaxpoolBackward, TiledStride1HasWiderSeams) {
  check_both(1, 1, 90, 90, Window2d::pool(3, 1), 309);
}

TEST(MaxpoolBackward, WithPadding) {
  Window2d w = Window2d::pool(3, 2);
  w.pt = w.pb = w.pl = w.pr = 1;
  check_both(1, 1, 9, 9, w, 310);
}

TEST(MaxpoolBackward, BottomRowsUnusedByAnyPatchStayZero) {
  // 10 rows, K3 S2 -> Oh = 4 uses rows 0..8; row 9 gets no gradient.
  Device dev;
  const Window2d w = Window2d::pool(3, 2);
  const BwdCase c = make_case(1, 1, 10, 10, w, 311);
  auto r = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxBwd, .window = w,
             .merge = MergeImpl::kCol2im},
      PoolInputs{.mask = &c.mask, .grad = &c.grad, .ih = 10, .iw = 10});
  for (std::int64_t x = 0; x < 10; ++x) {
    for (std::int64_t cc = 0; cc < kC0; ++cc) {
      EXPECT_TRUE(r.grad_in
                      .at(std::int64_t{0}, std::int64_t{0}, std::int64_t{9},
                          x, cc)
                      .is_zero());
    }
  }
}

TEST(MaxpoolBackward, Col2imBeatsVadd) {
  // The paper's largest speedup (5.8x on Figure 7c) comes from replacing
  // the scattered vadd merge with Col2Im.
  Device dev;
  const Window2d w = Window2d::pool(3, 2);
  const BwdCase c = make_case(1, 1, 35, 35, w, 312);
  auto vadd = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxBwd, .window = w,
             .merge = MergeImpl::kVadd},
      PoolInputs{.mask = &c.mask, .grad = &c.grad, .ih = 35, .iw = 35});
  auto col2im = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxBwd, .window = w,
             .merge = MergeImpl::kCol2im},
      PoolInputs{.mask = &c.mask, .grad = &c.grad, .ih = 35, .iw = 35});
  EXPECT_LT(col2im.cycles(), vadd.cycles());
  // The mechanism: the vadd merge issues one instruction per
  // (kh, kw, patch); Col2Im replaces them all with Kh*Kw issues.
  EXPECT_GT(vadd.run.profile.vec.instrs, 5 * col2im.run.profile.vec.instrs);
}

TEST(MaxpoolBackward, GradientConservation) {
  // Each gradient value lands on >= 1 argmax positions (ties duplicate).
  // With a single-maximum input, total gradient mass is conserved.
  Device dev;
  const Window2d w = Window2d::pool(3, 3);  // disjoint patches
  TensorF16 in = testutil::random_float_nc1hwc0(1, 1, 9, 9, 313);
  const TensorF16 mask = ref::maxpool_argmax_mask(in, w);
  TensorF16 grad(Shape{1, 1, 3, 3, kC0});
  grad.fill_random_ints(314, 0, 7);
  auto r = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxBwd, .window = w,
             .merge = MergeImpl::kCol2im},
      PoolInputs{.mask = &mask, .grad = &grad, .ih = 9, .iw = 9});
  float got = 0, want = 0;
  for (std::int64_t i = 0; i < r.grad_in.size(); ++i) {
    got += r.grad_in.flat(i).to_float();
  }
  for (std::int64_t i = 0; i < grad.size(); ++i) {
    want += grad.flat(i).to_float();
  }
  EXPECT_EQ(got, want);
}

TEST(MaxpoolBackward, ShapeValidation) {
  Device dev;
  const Window2d w = Window2d::pool(3, 2);
  const BwdCase c = make_case(1, 1, 9, 9, w, 315);
  // Wrong spatial dims.
  EXPECT_THROW(
      kernels::run_pool(
          dev,
          PoolOp{.kind = PoolOpKind::kMaxBwd, .window = w,
                 .merge = MergeImpl::kVadd},
          PoolInputs{.mask = &c.mask, .grad = &c.grad, .ih = 11, .iw = 11}),
      Error);
  // Mask with wrong kernel dims.
  TensorF16 bad_mask(Shape{1, 1, 2, 2, 16, kC0});
  EXPECT_THROW(
      kernels::run_pool(
          dev,
          PoolOp{.kind = PoolOpKind::kMaxBwd, .window = w,
                 .merge = MergeImpl::kVadd},
          PoolInputs{.mask = &bad_mask, .grad = &c.grad, .ih = 9, .iw = 9}),
      Error);
}

TEST(MaxpoolBackward, MaskMustMatchGradientBatchAndChannels) {
  // The mask's N and C1 are the gradient's, and both end in C0 = 16: a
  // mismatch is a contract error, never a grad_in cut to the mask's N.
  Device dev;
  const Window2d w = Window2d::pool(3, 2);
  const BwdCase one = make_case(1, 2, 9, 9, w, 316);
  const BwdCase four = make_case(4, 2, 9, 9, w, 317);
  const BwdCase c1x3 = make_case(1, 3, 9, 9, w, 318);
  TensorF16 narrow_grad(Shape{1, 2, 4, 4, 8});
  for (MergeImpl merge : {MergeImpl::kVadd, MergeImpl::kCol2im}) {
    SCOPED_TRACE(kernels::to_string(merge));
    const PoolOp op{.kind = PoolOpKind::kMaxBwd, .window = w, .merge = merge};
    EXPECT_THROW(kernels::run_pool(dev, op,
                                   PoolInputs{.mask = &one.mask,
                                              .grad = &four.grad,
                                              .ih = 9, .iw = 9}),
                 Error);
    EXPECT_THROW(kernels::run_pool(dev, op,
                                   PoolInputs{.mask = &c1x3.mask,
                                              .grad = &one.grad,
                                              .ih = 9, .iw = 9}),
                 Error);
    EXPECT_THROW(kernels::run_pool(dev, op,
                                   PoolInputs{.mask = &one.mask,
                                              .grad = &narrow_grad,
                                              .ih = 9, .iw = 9}),
                 Error);
  }
}

}  // namespace
}  // namespace davinci
