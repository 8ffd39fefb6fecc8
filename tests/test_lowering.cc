// Tests for the AKG-style lowering pass: DSL compute definitions pattern-
// matched, scheduled and executed on the simulator, validated against the
// DSL interpreter (same definition, two execution paths).
#include "kernels/lower.h"

#include <gtest/gtest.h>

#include "ref/pooling_ref.h"
#include "test_util.h"

namespace davinci::akg {
namespace {

// Builds the Listing-1 compute for the given geometry and reduction.
dsl::Compute pooling_compute(const Shape& in_shape, const Window2d& w,
                             dsl::ReduceKind kind) {
  const auto input = dsl::placeholder(in_shape, "input", 0);
  const auto rh = dsl::reduce_axis(w.kh, "red_h");
  const auto rw = dsl::reduce_axis(w.kw, "red_w");
  const Shape out{in_shape[0], in_shape[1], w.out_h(in_shape[2]),
                  w.out_w(in_shape[3]), kC0};
  return dsl::compute(out, [&](const std::vector<dsl::IndexExpr>& i) {
    const dsl::Expr body =
        input(i[0], i[1], i[2] * w.sh + rh, i[3] * w.sw + rw, i[4]);
    switch (kind) {
      case dsl::ReduceKind::kMin: return dsl::min(body, {rh, rw});
      case dsl::ReduceKind::kSum: return dsl::sum(body, {rh, rw});
      case dsl::ReduceKind::kMax: break;
    }
    return dsl::max(body, {rh, rw});
  });
}

TEST(Lowering, MatchExtractsWindow) {
  Window2d w;
  w.kh = 3;
  w.kw = 2;
  w.sh = 2;
  w.sw = 3;
  const dsl::Compute c =
      pooling_compute(Shape{1, 2, 9, 11, kC0}, w, dsl::ReduceKind::kMax);
  const PoolingPattern p = match_pooling(c);
  EXPECT_EQ(p.window.kh, 3);
  EXPECT_EQ(p.window.kw, 2);
  EXPECT_EQ(p.window.sh, 2);
  EXPECT_EQ(p.window.sw, 3);
  EXPECT_EQ(p.reduce, dsl::ReduceKind::kMax);
}

TEST(Lowering, LoweredMaxpoolEqualsInterpreter) {
  Device dev;
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 2, 11, 11, 71);
  const Window2d w = Window2d::pool(3, 2);
  const dsl::Compute c =
      pooling_compute(in.shape(), w, dsl::ReduceKind::kMax);
  auto lowered = lower_and_run(dev, c, in);
  const TensorF16 interpreted = dsl::evaluate(c, {&in});
  testutil::expect_equal_f16(lowered.out, interpreted, "lowered vs DSL");
  // The scheduler must have picked the Figure-8 winner for stride 2.
  EXPECT_EQ(lowered.impl, PoolImpl::kIm2col);
  EXPECT_GT(lowered.run.device_cycles, 0);
}

TEST(Lowering, HostBucketsChargeTheInputCheckAndOutputConstruction) {
  Device dev;
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 2, 11, 11, 75);
  const dsl::Compute c = pooling_compute(in.shape(), Window2d::pool(3, 2),
                                         dsl::ReduceKind::kMax);
  const Device::RunResult run = lower_and_run(dev, c, in).run;
  EXPECT_GT(run.host_validate_ns, 0);
  EXPECT_GT(run.host_alloc_ns, 0);
  EXPECT_EQ(run.host_alloc_ns + run.host_plan_ns + run.host_validate_ns +
                run.host_execute_ns,
            run.host_ns);
}

TEST(Lowering, SchedulerPicksDirectAtStrideWidth1) {
  Device dev;
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 9, 9, 72);
  const Window2d w = Window2d::pool(3, 1);
  const dsl::Compute c =
      pooling_compute(in.shape(), w, dsl::ReduceKind::kMax);
  auto lowered = lower_and_run(dev, c, in);
  EXPECT_EQ(lowered.impl, PoolImpl::kDirect);
  testutil::expect_equal_f16(lowered.out, ref::maxpool_fwd(in, w),
                             "stride-1 lowering");
}

TEST(Lowering, MinAndSumReductions) {
  Device dev;
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 8, 8, 73, -3, 3);
  const Window2d w = Window2d::pool(2, 2);
  {
    const dsl::Compute c =
        pooling_compute(in.shape(), w, dsl::ReduceKind::kMin);
    auto lowered = lower_and_run(dev, c, in);
    testutil::expect_equal_f16(lowered.out, dsl::evaluate(c, {&in}), "min");
  }
  {
    const dsl::Compute c =
        pooling_compute(in.shape(), w, dsl::ReduceKind::kSum);
    auto lowered = lower_and_run(dev, c, in);
    testutil::expect_equal_f16(lowered.out, dsl::evaluate(c, {&in}), "sum");
  }
}

TEST(Lowering, AsymmetricGeometry) {
  Device dev;
  Window2d w;
  w.kh = 2;
  w.kw = 4;
  w.sh = 3;
  w.sw = 2;
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 11, 14, 74);
  const dsl::Compute c =
      pooling_compute(in.shape(), w, dsl::ReduceKind::kMax);
  auto lowered = lower_and_run(dev, c, in);
  testutil::expect_equal_f16(lowered.out, dsl::evaluate(c, {&in}),
                             "asymmetric");
}

TEST(Lowering, RejectsNonPoolingComputes) {
  const auto input = dsl::placeholder(Shape{1, 1, 8, 8, kC0}, "x", 0);
  // Elementwise compute: no reduction.
  const dsl::Compute ew = dsl::compute(
      Shape{1, 1, 8, 8, kC0}, [&](const std::vector<dsl::IndexExpr>& i) {
        return input(i[0], i[1], i[2], i[3], i[4]) * dsl::constant(2.0f);
      });
  EXPECT_THROW(match_pooling(ew), Error);

  // Reduction over one axis only.
  const auto r = dsl::reduce_axis(2, "r");
  const dsl::Compute one = dsl::compute(
      Shape{1, 1, 4, 8, kC0}, [&](const std::vector<dsl::IndexExpr>& i) {
        return dsl::max(input(i[0], i[1], i[2] * 2 + r, i[3], i[4]), {r});
      });
  EXPECT_THROW(match_pooling(one), Error);

  // Non-identity channel indexing.
  const auto rh = dsl::reduce_axis(2, "rh");
  const auto rw = dsl::reduce_axis(2, "rw");
  const dsl::Compute twisted = dsl::compute(
      Shape{1, 1, 4, 4, kC0}, [&](const std::vector<dsl::IndexExpr>& i) {
        return dsl::max(
            input(i[0], i[1], i[2] * 2 + rh, i[3] * 2 + rw, i[1]), {rh, rw});
      });
  EXPECT_THROW(match_pooling(twisted), Error);

  // Output dims inconsistent with Equation (1).
  const auto rh2 = dsl::reduce_axis(2, "rh");
  const auto rw2 = dsl::reduce_axis(2, "rw");
  const dsl::Compute bad = dsl::compute(
      Shape{1, 1, 3, 4, kC0}, [&](const std::vector<dsl::IndexExpr>& i) {
        return dsl::max(
            input(i[0], i[1], i[2] * 2 + rh2, i[3] * 2 + rw2, i[4]),
            {rh2, rw2});
      });
  EXPECT_THROW(match_pooling(bad), Error);
}

}  // namespace
}  // namespace davinci::akg
