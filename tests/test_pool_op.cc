// The PoolOp entry point: a precomputed plan passed through PoolOp::plan
// must reproduce the planner's own result exactly (the plan-cache identity
// the serving layer relies on), invalid descriptor/input combinations are
// rejected, and descriptors name themselves.
#include <gtest/gtest.h>

#include "akg/tiling.h"
#include "kernels/pooling.h"
#include "ref/pooling_ref.h"
#include "sim/device.h"
#include "tensor/fractal.h"

namespace davinci {
namespace {

using kernels::MergeImpl;
using kernels::PoolInputs;
using kernels::PoolOp;
using kernels::PoolOpKind;
using kernels::PoolResult;

TensorF16 make_input(std::int64_t n, std::int64_t c1, std::int64_t h,
                     std::int64_t w, std::uint64_t seed = 1) {
  TensorF16 t(Shape{n, c1, h, w, kC0});
  t.fill_random_ints(seed);
  return t;
}

void expect_same_tensor(const TensorF16& a, const TensorF16& b) {
  ASSERT_EQ(a.shape().to_string(), b.shape().to_string());
  for (std::int64_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a.flat(i) == b.flat(i)) << "element " << i;
  }
}

void expect_equivalent(const PoolResult& a, const PoolResult& b) {
  EXPECT_EQ(a.run.device_cycles, b.run.device_cycles);
  EXPECT_EQ(a.run.device_cycles_serial, b.run.device_cycles_serial);
  EXPECT_EQ(a.has_out(), b.has_out());
  EXPECT_EQ(a.has_mask(), b.has_mask());
  EXPECT_EQ(a.has_grad_in(), b.has_grad_in());
  if (a.has_out()) expect_same_tensor(a.out, b.out);
  if (a.has_mask()) expect_same_tensor(a.mask, b.mask);
  if (a.has_grad_in()) expect_same_tensor(a.grad_in, b.grad_in);
}

// A plan computed by the planner and passed through PoolOp::plan must
// behave exactly like letting the kernel plan for itself.
TEST(PoolOpPlan, ForwardPlanPassThroughIsIdentity) {
  Device dev;
  const Window2d w = Window2d::pool(3, 2);
  const TensorF16 in = make_input(1, 2, 95, 95);  // big enough to tile
  const akg::PoolPlan plan = akg::plan_fwd(akg::PoolImpl::kIm2col, dev.arch(),
                                           w, 95, 95, /*with_mask=*/false,
                                           dev.double_buffer());
  PoolOp op{.kind = PoolOpKind::kMaxFwd, .window = w,
            .fwd = akg::PoolImpl::kIm2col};
  auto implicit = kernels::run_pool(dev, op, PoolInputs{.in = &in});
  op.plan = plan;
  auto explicit_plan = kernels::run_pool(dev, op, PoolInputs{.in = &in});
  expect_equivalent(implicit, explicit_plan);
}

TEST(PoolOpPlan, BackwardPlanPassThroughIsIdentity) {
  Device dev;
  const Window2d w = Window2d::pool(3, 2);
  const std::int64_t h = 63, iw = 63;
  const TensorF16 in = make_input(1, 2, h, iw, 13);
  const TensorF16 mask = ref::maxpool_argmax_mask(in, w);
  TensorF16 grad(Shape{1, 2, w.out_h(h), w.out_w(iw), kC0});
  grad.fill_random_ints(15, 0, 5);
  PoolOp op{.kind = PoolOpKind::kMaxBwd, .window = w,
            .merge = MergeImpl::kCol2im};
  const PoolInputs bwd_in{.mask = &mask, .grad = &grad, .ih = h, .iw = iw};
  auto implicit = kernels::run_pool(dev, op, bwd_in);
  op.plan = akg::plan_bwd(dev.arch(), w, h, iw, dev.double_buffer());
  auto explicit_plan = kernels::run_pool(dev, op, bwd_in);
  expect_equivalent(implicit, explicit_plan);
}

TEST(PoolOpValidation, RejectsBadCombinations) {
  Device dev;
  const Window2d w = Window2d::pool(3, 2);
  const TensorF16 in = make_input(1, 1, 15, 15);
  // AvgPool supports only direct and im2col lowering.
  EXPECT_THROW(kernels::run_pool(dev,
                                 PoolOp{.kind = PoolOpKind::kAvgFwd,
                                        .window = w,
                                        .fwd = akg::PoolImpl::kExpansion},
                                 PoolInputs{.in = &in}),
               Error);
  // Forward kinds require the input tensor.
  EXPECT_THROW(kernels::run_pool(
                   dev, PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w},
                   PoolInputs{}),
               Error);
  // Backward kinds require the gradient (and mask for kMaxBwd).
  EXPECT_THROW(kernels::run_pool(
                   dev, PoolOp{.kind = PoolOpKind::kMaxBwd, .window = w},
                   PoolInputs{.in = &in}),
               Error);
}

TEST(PoolOpDescriptor, ToStringNamesKindAndLowering) {
  const PoolOp fwd{.kind = PoolOpKind::kMaxFwd,
                   .window = Window2d::pool(3, 2),
                   .fwd = akg::PoolImpl::kIm2col};
  EXPECT_NE(fwd.to_string().find("maxpool"), std::string::npos);
  EXPECT_NE(fwd.to_string().find("im2col"), std::string::npos);
  const PoolOp bwd{.kind = PoolOpKind::kMaxBwd,
                   .window = Window2d::pool(3, 2),
                   .merge = MergeImpl::kCol2im};
  EXPECT_NE(bwd.to_string().find("maxpool_bwd"), std::string::npos);
  EXPECT_NE(bwd.to_string().find("col2im"), std::string::npos);
}

}  // namespace
}  // namespace davinci
