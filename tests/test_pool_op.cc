// The PoolOp entry point: a precomputed plan passed through PoolOp::plan
// must reproduce the planner's own result exactly (the plan-cache identity
// the serving layer relies on), invalid descriptor/input combinations are
// rejected, and descriptors name themselves. Every kind run through the
// slice-map entry (run_pool_maps) on slices scattered in reverse order
// between guard bytes must give the contiguous launch's bits and cycles
// and touch nothing outside its slices.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

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

// A tensor's slices copied into one buffer in reverse order, each with
// kGuard 0xA5A5 elements on either side, and the slice map addressing
// them.
class Scattered {
 public:
  static constexpr std::int64_t kGuard = 40;
  static constexpr std::uint16_t kGuardBits = 0xA5A5;

  explicit Scattered(const TensorF16& t)
      : shape_(t.shape()),
        slices_(t.shape()[0] * t.shape()[1]),
        elems_(t.shape().stride(1)),
        store_(static_cast<std::size_t>(slices_ * (elems_ + kGuard) + kGuard),
               Float16::from_bits(kGuardBits)) {
    map_.shape = shape_;
    for (std::int64_t b = 0; b < slices_; ++b) {
      Float16* dst = slot(b);
      std::copy(t.data() + b * elems_, t.data() + (b + 1) * elems_, dst);
      map_.base.push_back(dst);
    }
  }

  const kernels::SliceMap& map() const { return map_; }

  // The slices gathered back in order.
  TensorF16 gather() {
    TensorF16 t(shape_, kUninitialized);
    for (std::int64_t b = 0; b < slices_; ++b) {
      std::copy(slot(b), slot(b) + elems_, t.data() + b * elems_);
    }
    return t;
  }

  // Index of the first guard element that changed, or -1.
  std::int64_t first_broken_guard() const {
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(store_.size());
         ++i) {
      const std::int64_t in_slot = (i - kGuard) % (elems_ + kGuard);
      const bool guard = i < kGuard || in_slot >= elems_;
      if (guard && store_[static_cast<std::size_t>(i)].bits() != kGuardBits) {
        return i;
      }
    }
    return -1;
  }

 private:
  Float16* slot(std::int64_t b) {
    return store_.data() + kGuard + (slices_ - 1 - b) * (elems_ + kGuard);
  }

  Shape shape_;
  std::int64_t slices_, elems_;
  std::vector<Float16> store_;
  kernels::SliceMap map_;
};

TEST(PoolOpMaps, ScatteredSlicesMatchTheContiguousLaunch) {
  Device dev;
  const Window2d w = Window2d::pool(3, 2);
  using akg::PoolImpl;
  struct Case {
    PoolOp op;
    std::int64_t h;
  };
  const std::vector<Case> cases = {
      {{.kind = PoolOpKind::kMaxFwd, .window = w, .fwd = PoolImpl::kDirect},
       21},
      {{.kind = PoolOpKind::kMaxFwd, .window = w, .fwd = PoolImpl::kIm2col},
       21},
      {{.kind = PoolOpKind::kMaxFwd, .window = w,
        .fwd = PoolImpl::kExpansion},
       21},
      {{.kind = PoolOpKind::kMaxFwd, .window = w, .fwd = PoolImpl::kXYSplit},
       21},
      // H-tiles: the slice offsets of later tiles are exercised.
      {{.kind = PoolOpKind::kMaxFwd, .window = w, .fwd = PoolImpl::kIm2col},
       95},
      {{.kind = PoolOpKind::kAvgFwd, .window = w, .fwd = PoolImpl::kIm2col},
       21},
      {{.kind = PoolOpKind::kMinFwd, .window = w, .fwd = PoolImpl::kIm2col},
       21},
      {{.kind = PoolOpKind::kGlobalAvg}, 8},
      {{.kind = PoolOpKind::kMaxMaskFwd, .window = w,
        .fwd = PoolImpl::kDirect},
       21},
      {{.kind = PoolOpKind::kMaxMaskFwd, .window = w,
        .fwd = PoolImpl::kIm2col},
       21},
      {{.kind = PoolOpKind::kMaxBwd, .window = w, .merge = MergeImpl::kVadd},
       19},
      {{.kind = PoolOpKind::kMaxBwd, .window = w,
        .merge = MergeImpl::kCol2im},
       19},
      {{.kind = PoolOpKind::kAvgBwd, .window = w, .merge = MergeImpl::kVadd},
       19},
      {{.kind = PoolOpKind::kAvgBwd, .window = w,
        .merge = MergeImpl::kCol2im},
       19},
      // Row 19 is under no window: grad_in's zero-filled rows.
      {{.kind = PoolOpKind::kMaxBwd, .window = w,
        .merge = MergeImpl::kCol2im},
       20},
      // H-tiles, with seam rows read back from the slice.
      {{.kind = PoolOpKind::kMaxBwd, .window = w,
        .merge = MergeImpl::kCol2im},
       63},
  };
  ASSERT_TRUE(akg::plan_fwd(PoolImpl::kIm2col, dev.arch(), w, 95, 95,
                            /*with_mask=*/false, dev.double_buffer())
                  .tiled());
  ASSERT_TRUE(akg::plan_bwd(dev.arch(), w, 63, 63, dev.double_buffer())
                  .tiled());

  for (const Case& c : cases) {
    SCOPED_TRACE(c.op.to_string() + " h=" + std::to_string(c.h));
    const TensorF16 in = make_input(2, 3, c.h, c.h, 21);
    std::optional<TensorF16> mask, grad;
    PoolInputs inputs{.in = &in};
    if (kernels::is_backward(c.op.kind)) {
      mask = ref::maxpool_argmax_mask(in, w);
      grad = make_input(2, 3, w.out_h(c.h), w.out_w(c.h), 22);
      inputs = PoolInputs{
          .mask = c.op.kind == PoolOpKind::kMaxBwd ? &*mask : nullptr,
          .grad = &*grad, .ih = c.h, .iw = c.h};
    }
    const PoolResult want = kernels::run_pool(dev, c.op, inputs);

    // Every tensor the kind reads or writes, scattered; outputs start as
    // make_outputs' tensors (zeros where the zero-fill rule applies).
    const PoolResult outs = kernels::make_outputs(c.op, inputs, false);
    std::vector<Scattered> held;
    held.reserve(6);
    auto scatter = [&](const TensorF16* t) -> const kernels::SliceMap* {
      if (t == nullptr || t->shape().rank() == 0) return nullptr;
      held.emplace_back(*t);
      return &held.back().map();
    };
    kernels::PoolMaps maps;
    for (auto [t, m] : {std::pair{inputs.in, &maps.in},
                        std::pair{inputs.mask, &maps.mask},
                        std::pair{inputs.grad, &maps.grad},
                        std::pair{&outs.out, &maps.out},
                        std::pair{&outs.mask, &maps.out_mask},
                        std::pair{&outs.grad_in, &maps.grad_in}}) {
      if (const kernels::SliceMap* sm = scatter(t)) *m = *sm;
    }
    const Device::RunResult run =
        kernels::run_pool_maps(dev, c.op, maps);
    EXPECT_EQ(run.device_cycles, want.run.device_cycles);
    EXPECT_EQ(run.device_cycles_serial, want.run.device_cycles_serial);

    std::size_t k = held.size() - 1;  // outputs were scattered last
    for (const TensorF16* t : {&want.grad_in, &want.mask, &want.out}) {
      if (t->shape().rank() == 0) continue;
      expect_same_tensor(held[k].gather(), *t);
      --k;
    }
    for (std::size_t i = 0; i < held.size(); ++i) {
      EXPECT_EQ(held[i].first_broken_guard(), -1) << "tensor " << i;
    }
  }
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
