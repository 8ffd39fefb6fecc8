// Tests for the extension operators: MinPool and global average pooling.
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

TEST(Minpool, AllImplsMatchReference) {
  Device dev;
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 2, 11, 11, 951);
  const Window2d w = Window2d::pool(3, 2);
  const TensorF16 want = ref::minpool_fwd(in, w);
  for (PoolImpl impl : {PoolImpl::kDirect, PoolImpl::kIm2col,
                        PoolImpl::kExpansion, PoolImpl::kXYSplit}) {
    auto got = kernels::run_pool(
        dev, PoolOp{.kind = PoolOpKind::kMinFwd, .window = w, .fwd = impl},
        PoolInputs{.in = &in});
    testutil::expect_equal_f16(got.out, want, akg::to_string(impl));
  }
}

TEST(Minpool, IsDualOfMaxpoolOnNegatedInput) {
  Device dev;
  TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 9, 9, 952);
  TensorF16 neg(in.shape());
  for (std::int64_t i = 0; i < in.size(); ++i) neg.flat(i) = -in.flat(i);
  const Window2d w = Window2d::pool(3, 3);
  auto mn = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMinFwd, .window = w,
             .fwd = PoolImpl::kIm2col},
      PoolInputs{.in = &in});
  auto mx = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
             .fwd = PoolImpl::kIm2col},
      PoolInputs{.in = &neg});
  for (std::int64_t i = 0; i < mn.out.size(); ++i) {
    ASSERT_TRUE(mn.out.flat(i) == -mx.out.flat(i)) << i;
  }
}

TEST(Minpool, PaddingParticipatesAsZero) {
  Device dev;
  TensorF16 in(Shape{1, 1, 4, 4, kC0});
  in.fill(Float16(5.0f));  // all positive -> padded patches min to 0
  Window2d w = Window2d::pool(3, 2);
  w.pt = w.pb = w.pl = w.pr = 1;
  auto got = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMinFwd, .window = w,
             .fwd = PoolImpl::kIm2col},
      PoolInputs{.in = &in});
  const TensorF16 want = ref::minpool_fwd(in, w);
  testutil::expect_equal_f16(got.out, want, "padded minpool");
  // Corner patch includes padding -> min is 0.
  EXPECT_EQ(got.out
                .at(std::int64_t{0}, std::int64_t{0}, std::int64_t{0},
                    std::int64_t{0}, std::int64_t{0})
                .to_float(),
            0.0f);
}

TEST(Minpool, Im2colFasterAtStride2) {
  Device dev;
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 33, 33, 953);
  const Window2d w = Window2d::pool(3, 2);
  auto d = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMinFwd, .window = w,
             .fwd = PoolImpl::kDirect},
      PoolInputs{.in = &in});
  auto i = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMinFwd, .window = w,
             .fwd = PoolImpl::kIm2col},
      PoolInputs{.in = &in});
  EXPECT_LT(i.cycles(), d.cycles());
}

TEST(GlobalAvgpool, MatchesExactReference) {
  Device dev;
  const TensorF16 in = testutil::random_int_nc1hwc0(2, 3, 17, 13, 954, -2, 2);
  auto got = kernels::run_pool(
      dev, PoolOp{.kind = PoolOpKind::kGlobalAvg}, PoolInputs{.in = &in});
  const TensorF16 want = ref::global_avgpool(in);
  testutil::expect_equal_f16(got.out, want, "global avgpool");
  EXPECT_EQ(got.out.shape(), Shape({2, 3, 1, 1, kC0}));
}

TEST(GlobalAvgpool, CloseToF32Mean) {
  Device dev;
  const TensorF16 in = testutil::random_float_nc1hwc0(1, 2, 23, 23, 955);
  auto got = kernels::run_pool(
      dev, PoolOp{.kind = PoolOpKind::kGlobalAvg}, PoolInputs{.in = &in});
  const TensorF32 want = ref::global_avgpool_f32(in);
  for (std::int64_t i = 0; i < got.out.size(); ++i) {
    EXPECT_NEAR(got.out.flat(i).to_float(), want.flat(i), 0.02f) << i;
  }
}

TEST(GlobalAvgpool, ConstantInput) {
  Device dev;
  TensorF16 in(Shape{1, 1, 16, 16, kC0});
  in.fill(Float16(3.0f));
  auto got = kernels::run_pool(
      dev, PoolOp{.kind = PoolOpKind::kGlobalAvg}, PoolInputs{.in = &in});
  for (std::int64_t c = 0; c < kC0; ++c) {
    EXPECT_EQ(got.out.flat(c).to_float(), 3.0f);
  }
}

TEST(GlobalAvgpool, TiledLargeInputMatchesTiledReference) {
  // 147x147 rows exceed one UB tile; the reference mirrors the kernel's
  // tiling, so the comparison stays bit-exact.
  ArchConfig arch = ArchConfig::ascend910();
  Device dev(arch);
  const TensorF16 in =
      testutil::random_int_nc1hwc0(1, 1, 147, 147, 956, -1, 1);
  const std::int64_t rows_per_tile =
      (arch.ub_bytes - 1024) / (147 * kC0 * 2);
  auto got = kernels::run_pool(
      dev, PoolOp{.kind = PoolOpKind::kGlobalAvg}, PoolInputs{.in = &in});
  const TensorF16 want = ref::global_avgpool(in, rows_per_tile);
  testutil::expect_equal_f16(got.out, want, "tiled global avgpool");
}

TEST(GlobalAvgpool, SaturatesVectorLanes) {
  Device dev;
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 32, 32, 957);
  auto got = kernels::run_pool(
      dev, PoolOp{.kind = PoolOpKind::kGlobalAvg}, PoolInputs{.in = &in});
  // The running accumulation uses all 128 lanes; only the short tree and
  // the final ops are narrower.
  EXPECT_GT(got.run.profile.vec_lane_utilization(), 0.8);
}

TEST(GlobalAvgpool, ParallelizesOverChannels) {
  Device dev;
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 8, 16, 16, 958);
  auto got = kernels::run_pool(
      dev, PoolOp{.kind = PoolOpKind::kGlobalAvg}, PoolInputs{.in = &in});
  EXPECT_EQ(got.run.cores_used, 8);
}

}  // namespace
}  // namespace davinci
