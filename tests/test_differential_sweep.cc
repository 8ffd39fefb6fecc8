// Randomized differential sweep: many seeds through the complete
// operator set, checking all implementations against the references and
// against each other. Each seed draws its own geometry -- kernel 2-4 and
// stride 1-3 per axis, N and C1 of 2-3, one odd and one even spatial size
// -- and its own values. Padding stays zero so all four forward lowerings
// run. This is the "fuzz" layer on top of the structured property grids.
#include <gtest/gtest.h>

#include "common/prng.h"
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

struct Geometry {
  Window2d w;
  std::int64_t n, c1, h, iw;
};

Geometry geometry_for(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  auto pick = [&](std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    rng.next_below(static_cast<std::uint64_t>(hi - lo + 1)));
  };
  Geometry g;
  g.w.kh = pick(2, 4);
  g.w.kw = pick(2, 4);
  g.w.sh = pick(1, 3);
  g.w.sw = pick(1, 3);
  g.n = pick(2, 3);
  g.c1 = pick(2, 3);
  g.h = pick(g.w.kh, 20);
  g.iw = pick(g.w.kw, 20);
  if ((g.h + g.iw) % 2 == 0) g.iw += g.iw < 20 ? 1 : -1;  // one odd, one even
  return g;
}

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, FullOperatorSetAgrees) {
  const std::uint64_t seed = GetParam();
  const Geometry g = geometry_for(seed);
  const Window2d& w = g.w;
  const std::int64_t h = g.h, iw = g.iw;
  SCOPED_TRACE(w.to_string() + " on " + std::to_string(g.n) + "x" +
               std::to_string(g.c1) + "x" + std::to_string(h) + "x" +
               std::to_string(iw));
  Device dev;
  const TensorF16 in = testutil::random_int_nc1hwc0(g.n, g.c1, h, iw, seed);

  // Forward: all four implementations.
  const TensorF16 want_fwd = ref::maxpool_fwd(in, w);
  for (PoolImpl impl : {PoolImpl::kDirect, PoolImpl::kIm2col,
                        PoolImpl::kExpansion, PoolImpl::kXYSplit}) {
    auto got = kernels::run_pool(
        dev, PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w, .fwd = impl},
        PoolInputs{.in = &in});
    testutil::expect_equal_f16(got.out, want_fwd, akg::to_string(impl));
  }

  // Forward with mask (both), then backward (both) fed from each mask.
  auto fd = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxMaskFwd, .window = w,
             .fwd = PoolImpl::kDirect},
      PoolInputs{.in = &in});
  auto fi = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxMaskFwd, .window = w,
             .fwd = PoolImpl::kIm2col},
      PoolInputs{.in = &in});
  TensorF16 grad(Shape{g.n, g.c1, w.out_h(h), w.out_w(iw), kC0});
  grad.fill_random_ints(seed ^ 0x9E3779B9u, 0, 6);
  const TensorF16 want_bwd = ref::maxpool_bwd(fi.mask, grad, w, h, iw);
  for (MergeImpl m : {MergeImpl::kVadd, MergeImpl::kCol2im}) {
    auto a = kernels::run_pool(
        dev, PoolOp{.kind = PoolOpKind::kMaxBwd, .window = w, .merge = m},
        PoolInputs{.mask = &fd.mask, .grad = &grad, .ih = h, .iw = iw});
    auto b = kernels::run_pool(
        dev, PoolOp{.kind = PoolOpKind::kMaxBwd, .window = w, .merge = m},
        PoolInputs{.mask = &fi.mask, .grad = &grad, .ih = h, .iw = iw});
    testutil::expect_equal_f16(a.grad_in, want_bwd, "bwd from direct mask");
    testutil::expect_equal_f16(b.grad_in, want_bwd, "bwd from im2col mask");
  }

  // AvgPool forward and backward.
  const TensorF16 want_avg = ref::avgpool_fwd(in, w);
  for (PoolImpl impl : {PoolImpl::kDirect, PoolImpl::kIm2col}) {
    auto got = kernels::run_pool(
        dev, PoolOp{.kind = PoolOpKind::kAvgFwd, .window = w, .fwd = impl},
        PoolInputs{.in = &in});
    testutil::expect_equal_f16(got.out, want_avg, "avg fwd");
  }
  const TensorF16 want_avgb = ref::avgpool_bwd(grad, w, h, iw);
  for (MergeImpl m : {MergeImpl::kVadd, MergeImpl::kCol2im}) {
    auto got = kernels::run_pool(
        dev, PoolOp{.kind = PoolOpKind::kAvgBwd, .window = w, .merge = m},
        PoolInputs{.grad = &grad, .ih = h, .iw = iw});
    testutil::expect_equal_f16(got.grad_in, want_avgb, "avg bwd");
  }

  // MinPool and global average pooling.
  auto mn = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMinFwd, .window = w,
             .fwd = PoolImpl::kIm2col},
      PoolInputs{.in = &in});
  testutil::expect_equal_f16(mn.out, ref::minpool_fwd(in, w), "min");
  auto gap = kernels::run_pool(
      dev, PoolOp{.kind = PoolOpKind::kGlobalAvg}, PoolInputs{.in = &in});
  testutil::expect_equal_f16(gap.out, ref::global_avgpool(in), "gap");
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace davinci
