// Tests for the TVM-style compute DSL: the paper's Listings 1-3 written
// literally and validated against the reference implementations and the
// simulator kernels.
#include "akg/dsl.h"

#include <gtest/gtest.h>

#include "common/align.h"
#include "kernels/pooling.h"
#include "ref/im2col_ref.h"
#include "ref/pooling_ref.h"
#include "test_util.h"

namespace davinci::akg::dsl {
namespace {

using kernels::PoolInputs;
using kernels::PoolOp;
using kernels::PoolOpKind;

// Listing 1: the standard MaxPool compute definition.
//   output = compute((N, C1, Oh, Ow, C0),
//       lambda n, c1, h, w, c0:
//           max(input[n, c1, h*Sh + red_h, w*Sw + red_w, c0],
//               axis=[red_h, red_w]))
Compute listing1(const Shape& in_shape, const Window2d& w) {
  const auto input = placeholder(in_shape, "input", 0);
  const auto rh = reduce_axis(w.kh, "red_h");
  const auto rw = reduce_axis(w.kw, "red_w");
  const Shape out{in_shape[0], in_shape[1], w.out_h(in_shape[2]),
                  w.out_w(in_shape[3]), kC0};
  return compute(out, [&](const std::vector<IndexExpr>& i) {
    return max(input(i[0], i[1], i[2] * w.sh + rh, i[3] * w.sw + rw, i[4]),
               {rh, rw});
  });
}

// Listing 2: MaxPool over the Im2Col-loaded shape
// (N, C1, Kh, Kw, Oh, Ow, C0) -- the reduction axes became outermost.
// (We use the fractal-padded patch dimension PP = Oh*Ow rounded to whole
// fractals, flattened, exactly as the load produces it.)
Compute listing2(const Shape& cols_shape, const Window2d& w,
                 std::int64_t oh, std::int64_t ow) {
  const auto cols = placeholder(cols_shape, "input-im2col", 0);
  const auto rh = reduce_axis(w.kh, "red_h");
  const auto rw = reduce_axis(w.kw, "red_w");
  const Shape out{cols_shape[0], cols_shape[1], oh, ow, kC0};
  return compute(out, [&](const std::vector<IndexExpr>& i) {
    return max(cols(i[0], i[1], rh, rw, i[2] * ow + i[3], i[4]), {rh, rw});
  });
}

TEST(Dsl, Listing1EqualsReferenceMaxpool) {
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 2, 9, 11, 81);
  const Window2d w = Window2d::pool(3, 2);
  const TensorF16 got = evaluate(listing1(in.shape(), w), {&in});
  const TensorF16 want = ref::maxpool_fwd(in, w);
  testutil::expect_equal_f16(got, want, "listing 1");
}

TEST(Dsl, Listing1EqualsSimulatorKernel) {
  Device dev;
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 11, 11, 82);
  const Window2d w = Window2d::pool(3, 2);
  const TensorF16 got = evaluate(listing1(in.shape(), w), {&in});
  auto kernel = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
             .fwd = PoolImpl::kDirect},
      PoolInputs{.in = &in});
  testutil::expect_equal_f16(got, kernel.out, "listing 1 vs kernel");
}

TEST(Dsl, Listing2OnIm2colInputEqualsListing1) {
  // The paper's schedule change: the same reduction over the transformed
  // layout produces identical results.
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 2, 9, 9, 83);
  const Window2d w = Window2d::pool(3, 2);
  const std::int64_t oh = w.out_h(9), ow = w.out_w(9);
  const TensorF16 cols = ref::im2col(in, w);  // (N, C1, Kh, Kw, PP, C0)

  const TensorF16 a = evaluate(listing1(in.shape(), w), {&in});
  const TensorF16 b = evaluate(listing2(cols.shape(), w, oh, ow), {&cols});
  testutil::expect_equal_f16(a, b, "listing 2 == listing 1");
}

TEST(Dsl, Listing3MaskGradientMultiply) {
  // Listing 3: mask-gradient = argmax-mask[n,c1,kh,kw,oh,ow,c0]
  //                            * gradient[n,c1,oh,ow,c0].
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 9, 9, 84);
  const Window2d w = Window2d::pool(3, 2);
  const std::int64_t oh = w.out_h(9), ow = w.out_w(9);
  const TensorF16 mask = ref::maxpool_argmax_mask(in, w);
  TensorF16 grad(Shape{1, 1, oh, ow, kC0});
  grad.fill_random_ints(85, 0, 5);

  // The geometry gives PP == Oh*Ow here (16 patches, no tail), so the
  // flattened patch axis indexes the gradient directly; view the gradient
  // as (N, C1, 1, Oh*Ow, C0).
  ASSERT_EQ(mask.shape()[4], oh * ow);
  TensorF16 gflat(Shape{1, 1, 1, oh * ow, kC0});
  for (std::int64_t i = 0; i < grad.size(); ++i) gflat.flat(i) = grad.flat(i);

  const auto m = placeholder(mask.shape(), "argmax-mask", 0);
  const auto g = placeholder(gflat.shape(), "gradients", 1);
  const Compute c = compute(
      mask.shape(), [&](const std::vector<IndexExpr>& i) {
        // i = (n, c1, kh, kw, p, c0), as in Listing 3's
        // argmax-mask(b, c1, kh, kw, oh, ow, c0) * gradient(b, c1, oh, ow, c0).
        return m(i[0], i[1], i[2], i[3], i[4], i[5]) *
               g(i[0], i[1], IndexExpr(0), i[4], i[5]);
      });
  const TensorF16 got = evaluate(c, {&mask, &gflat});

  // Compare against the straightforward host computation.
  for (std::int64_t k = 0; k < 9; ++k) {
    for (std::int64_t p = 0; p < oh * ow; ++p) {
      for (std::int64_t ch = 0; ch < kC0; ++ch) {
        const Float16 want =
            mask.flat((k * oh * ow + p) * kC0 + ch) * grad.flat(p * kC0 + ch);
        ASSERT_TRUE(got.flat((k * oh * ow + p) * kC0 + ch) == want);
      }
    }
  }
}

TEST(Dsl, AvgpoolAsSumThenScale) {
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 8, 8, 86);
  const Window2d w = Window2d::pool(2, 2);
  const auto input = placeholder(in.shape(), "input", 0);
  const auto rh = reduce_axis(2, "red_h");
  const auto rw = reduce_axis(2, "red_w");
  const Shape out{1, 1, 4, 4, kC0};
  // Two computes: the reduction, then the elementwise scale (reductions
  // must be top-level, as in TVM).
  const Compute summed = compute(out, [&](const std::vector<IndexExpr>& i) {
    return sum(input(i[0], i[1], i[2] * 2 + rh, i[3] * 2 + rw, i[4]),
               {rh, rw});
  });
  const TensorF16 s = evaluate(summed, {&in});
  const auto sp = placeholder(s.shape(), "summed", 0);
  const Compute scaled = compute(out, [&](const std::vector<IndexExpr>& i) {
    return sp(i[0], i[1], i[2], i[3], i[4]) * constant(0.25f);
  });
  const TensorF16 got = evaluate(scaled, {&s});
  const TensorF16 want = ref::avgpool_fwd(in, w);
  testutil::expect_equal_f16(got, want, "avgpool via DSL");
}

TEST(Dsl, MinReduction) {
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 6, 6, 87);
  const Window2d w = Window2d::pool(2, 2);
  const auto input = placeholder(in.shape(), "input", 0);
  const auto rh = reduce_axis(2, "rh");
  const auto rw = reduce_axis(2, "rw");
  const Compute c = compute(Shape{1, 1, 3, 3, kC0},
                            [&](const std::vector<IndexExpr>& i) {
                              return min(input(i[0], i[1], i[2] * 2 + rh,
                                               i[3] * 2 + rw, i[4]),
                                         {rh, rw});
                            });
  const TensorF16 got = evaluate(c, {&in});
  testutil::expect_equal_f16(got, ref::minpool_fwd(in, w), "min reduce");
}

TEST(Dsl, ElementwiseArithmetic) {
  TensorF16 a(Shape{4, 4});
  TensorF16 b(Shape{4, 4});
  a.fill_random_ints(88, 1, 5);
  b.fill_random_ints(89, 1, 5);
  const auto pa = placeholder(a.shape(), "a", 0);
  const auto pb = placeholder(b.shape(), "b", 1);
  const Compute c = compute(Shape{4, 4}, [&](const std::vector<IndexExpr>& i) {
    return (pa(i[0], i[1]) + pb(i[0], i[1])) * constant(2.0f) -
           pa(i[0], i[1]) / pb(i[0], i[1]);
  });
  const TensorF16 got = evaluate(c, {&a, &b});
  for (std::int64_t i = 0; i < got.size(); ++i) {
    const Float16 want =
        (a.flat(i) + b.flat(i)) * Float16(2.0f) - a.flat(i) / b.flat(i);
    ASSERT_TRUE(got.flat(i) == want) << i;
  }
}

TEST(Dsl, ReductionOrderMattersForFp16Sums) {
  // The declaration order of reduce axes defines the accumulation order;
  // fp16 sums are order-sensitive, and the interpreter must honour it.
  TensorF16 in(Shape{1, 4});
  in.flat(0) = Float16(2048.0f);
  in.flat(1) = Float16(1.0f);
  in.flat(2) = Float16(1.0f);
  in.flat(3) = Float16(0.0f);
  const auto p = placeholder(in.shape(), "x", 0);
  const auto r = reduce_axis(4, "r");
  const Compute c = compute(Shape{1}, [&](const std::vector<IndexExpr>& i) {
    return sum(p(i[0], r), {r});
  });
  const TensorF16 got = evaluate(c, {&in});
  // ((2048 + 1) + 1) + 0: each +1 is absorbed (ulp = 2 at 2048).
  EXPECT_EQ(got.flat(0).to_float(), 2048.0f);
}

TEST(Dsl, ErrorsAreActionable) {
  const auto p = placeholder(Shape{4, 4}, "x", 0);
  // Rank mismatch on load.
  EXPECT_THROW(p.load({IndexExpr(0)}), Error);
  // Out-of-bounds index at evaluation.
  TensorF16 in(Shape{4, 4});
  const Compute c = compute(Shape{4}, [&](const std::vector<IndexExpr>& i) {
    return p(i[0] + 3, IndexExpr(0));
  });
  EXPECT_THROW(evaluate(c, {&in}), Error);
  // Input shape mismatch.
  TensorF16 wrong(Shape{4, 5});
  const Compute c2 = compute(Shape{4}, [&](const std::vector<IndexExpr>& i) {
    return p(i[0], IndexExpr(0));
  });
  EXPECT_THROW(evaluate(c2, {&wrong}), Error);
  // Nested reductions rejected.
  const auto r1 = reduce_axis(2, "r1");
  EXPECT_THROW(
      max(max(p(IndexExpr(0), r1), {r1}), {reduce_axis(2, "r2")}), Error);
}

}  // namespace
}  // namespace davinci::akg::dsl
