// Property sweep over padded windows for the Im2col-based paths (the
// direct kernels do not support padding; the Im2Col instruction applies
// zero padding during the load). Parameterized over a grid of
// (kernel, stride, padding, size) configurations. A grid window padded by
// more than half its size breaks the pooling contract (ATen's pad <= k/2),
// so each launch of it must be refused, by run_pool and by a session.
#include <gtest/gtest.h>

#include <algorithm>

#include "akg/tiling.h"
#include "kernels/pooling.h"
#include "ref/im2col_ref.h"
#include "ref/pooling_ref.h"
#include "serve/session.h"
#include "test_util.h"

namespace davinci {
namespace {

using akg::PoolImpl;
using kernels::MergeImpl;
using kernels::PoolInputs;
using kernels::PoolOp;
using kernels::PoolOpKind;

struct PadConfig {
  std::int64_t h, w, k, s, pt, pb, pl, pr;
  std::uint64_t seed;

  Window2d window() const {
    Window2d win = Window2d::pool(k, s);
    win.pt = pt;
    win.pb = pb;
    win.pl = pl;
    win.pr = pr;
    return win;
  }

  bool over_padded() const { return std::max({pt, pb, pl, pr}) > k / 2; }

  friend std::ostream& operator<<(std::ostream& os, const PadConfig& c) {
    return os << "h" << c.h << "w" << c.w << "_k" << c.k << "s" << c.s
              << "_p" << c.pt << c.pb << c.pl << c.pr;
  }
};

std::vector<PadConfig> make_grid() {
  std::vector<PadConfig> grid;
  std::uint64_t seed = 2000;
  const std::int64_t pads[][4] = {
      {1, 1, 1, 1}, {1, 0, 0, 0}, {0, 1, 1, 0}, {2, 2, 2, 2}, {0, 0, 2, 1}};
  for (const std::int64_t k : {2, 3}) {
    for (const std::int64_t s : {1, 2}) {
      for (const auto& p : pads) {
        if (p[0] >= k || p[1] >= k || p[2] >= k || p[3] >= k) continue;
        grid.push_back(PadConfig{9, 11, k, s, p[0], p[1], p[2], p[3], ++seed});
      }
    }
  }
  // A tiled padded case.
  grid.push_back(PadConfig{75, 75, 3, 2, 1, 1, 1, 1, ++seed});
  return grid;
}

// The launch breaks the input contract: a bare run_pool throws, and a
// session request fails through its future.
void expect_refused(const PoolOp& op, const PoolInputs& in) {
  Device dev;
  EXPECT_THROW(kernels::run_pool(dev, op, in), Error) << op.to_string();
  serve::Session session(serve::Cluster{});
  auto f = session.submit(op, in);
  EXPECT_THROW(f.get(), Error) << op.to_string();
}

class PaddedProperty : public ::testing::TestWithParam<PadConfig> {};

TEST_P(PaddedProperty, ForwardMatchesReference) {
  const PadConfig& c = GetParam();
  Device dev;
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 1, c.h, c.w, c.seed);
  const Window2d w = c.window();
  const PoolOp op{.kind = PoolOpKind::kMaxFwd, .window = w,
                  .fwd = PoolImpl::kIm2col};
  if (c.over_padded()) {
    expect_refused(op, PoolInputs{.in = &in});
    return;
  }
  auto got = kernels::run_pool(dev, op, PoolInputs{.in = &in});
  testutil::expect_equal_f16(got.out, ref::maxpool_fwd(in, w), "padded fwd");
}

TEST_P(PaddedProperty, MaskAndBackwardRoundTrip) {
  const PadConfig& c = GetParam();
  Device dev;
  const TensorF16 in =
      testutil::random_int_nc1hwc0(1, 1, c.h, c.w, c.seed + 1);
  const Window2d w = c.window();
  const PoolOp mask_op{.kind = PoolOpKind::kMaxMaskFwd, .window = w,
                       .fwd = PoolImpl::kIm2col};
  TensorF16 grad(Shape{1, 1, w.out_h(c.h), w.out_w(c.w), kC0});
  grad.fill_random_ints(c.seed + 2, 0, 5);
  if (c.over_padded()) {
    expect_refused(mask_op, PoolInputs{.in = &in});
    const TensorF16 mask = ref::maxpool_argmax_mask(in, w);
    for (MergeImpl m : {MergeImpl::kVadd, MergeImpl::kCol2im}) {
      expect_refused(
          PoolOp{.kind = PoolOpKind::kMaxBwd, .window = w, .merge = m},
          PoolInputs{.mask = &mask, .grad = &grad, .ih = c.h, .iw = c.w});
    }
    return;
  }
  auto fwd = kernels::run_pool(dev, mask_op, PoolInputs{.in = &in});
  const TensorF16 want = ref::maxpool_bwd(fwd.mask, grad, w, c.h, c.w);
  for (MergeImpl m : {MergeImpl::kVadd, MergeImpl::kCol2im}) {
    auto bwd = kernels::run_pool(
        dev, PoolOp{.kind = PoolOpKind::kMaxBwd, .window = w, .merge = m},
        PoolInputs{.mask = &fwd.mask, .grad = &grad, .ih = c.h, .iw = c.w});
    testutil::expect_equal_f16(bwd.grad_in, want, kernels::to_string(m));
  }
}

TEST_P(PaddedProperty, AvgpoolMatchesReference) {
  const PadConfig& c = GetParam();
  Device dev;
  const TensorF16 in =
      testutil::random_int_nc1hwc0(1, 1, c.h, c.w, c.seed + 3);
  const Window2d w = c.window();
  const PoolOp op{.kind = PoolOpKind::kAvgFwd, .window = w,
                  .fwd = PoolImpl::kIm2col};
  if (c.over_padded()) {
    expect_refused(op, PoolInputs{.in = &in});
    return;
  }
  auto got = kernels::run_pool(dev, op, PoolInputs{.in = &in});
  testutil::expect_equal_f16(got.out, ref::avgpool_fwd(in, w), "padded avg");
}

TEST_P(PaddedProperty, Im2colCol2imAdjointOnPaddedWindows) {
  // <col2im(y), x> == <y, im2col(x)>: the two transformations are
  // adjoint linear maps even with padding (padding rows of y never reach
  // x and vice versa). Verified in fp32 to avoid rounding noise.
  const PadConfig& c = GetParam();
  if (c.h > 20) GTEST_SKIP() << "adjoint check on small cases only";
  const Window2d w = c.window();
  const TensorF16 x =
      testutil::random_int_nc1hwc0(1, 1, c.h, c.w, c.seed + 4, -3, 3);
  TensorF16 y(ref::im2col(x, w).shape());
  y.fill_random_ints(c.seed + 5, -3, 3);

  const TensorF16 ix = ref::im2col(x, w);
  const TensorF16 cy = ref::col2im(y, w, c.h, c.w);
  double lhs = 0, rhs = 0;
  for (std::int64_t i = 0; i < cy.size(); ++i) {
    lhs += static_cast<double>(cy.flat(i).to_float()) *
           static_cast<double>(x.flat(i).to_float());
  }
  for (std::int64_t i = 0; i < ix.size(); ++i) {
    rhs += static_cast<double>(ix.flat(i).to_float()) *
           static_cast<double>(y.flat(i).to_float());
  }
  EXPECT_EQ(lhs, rhs);
}

TEST_P(PaddedProperty, AutoSelectionPicksIm2colForPadding) {
  const PadConfig& c = GetParam();
  EXPECT_EQ(akg::select_fwd_impl(c.window()), PoolImpl::kIm2col);
}

INSTANTIATE_TEST_SUITE_P(Grid, PaddedProperty,
                         ::testing::ValuesIn(make_grid()),
                         [](const ::testing::TestParamInfo<PadConfig>& i) {
                           std::ostringstream os;
                           os << i.param;
                           return os.str();
                         });

TEST(AutoSelection, MatchesFigure8Winners) {
  Device dev;
  for (const std::int64_t s : {1, 2, 3}) {
    const Window2d w = Window2d::pool(3, s);
    const TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 25, 25, 3000);
    const PoolImpl pick = akg::select_fwd_impl(w);
    auto picked = kernels::run_pool(
        dev, PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w, .fwd = pick},
        PoolInputs{.in = &in});
    // The selection must be at least as fast as every other applicable
    // implementation.
    for (PoolImpl other : {PoolImpl::kDirect, PoolImpl::kIm2col,
                           PoolImpl::kExpansion}) {
      auto r = kernels::run_pool(
          dev, PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w, .fwd = other},
          PoolInputs{.in = &in});
      EXPECT_LE(picked.cycles(), r.cycles())
          << "stride " << s << ": " << akg::to_string(pick) << " vs "
          << akg::to_string(other);
    }
  }
}

}  // namespace
}  // namespace davinci
