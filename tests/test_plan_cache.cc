// serve::PlanCache -- LRU tiling-plan cache keyed on the full planning
// input (direction, lowering, window, geometry, mask, double-buffer).
// The load-bearing property: a cached plan equals a freshly computed one,
// so attaching it to a PoolOp changes nothing.
#include <gtest/gtest.h>

#include "akg/tiling.h"
#include "arch/arch_config.h"
#include "serve/plan_cache.h"

namespace davinci::serve {
namespace {

using kernels::MergeImpl;
using kernels::PoolOp;
using kernels::PoolOpKind;

PlanKey fwd_key(std::int64_t ih, std::int64_t iw,
                akg::PoolImpl impl = akg::PoolImpl::kIm2col) {
  PlanKey k;
  k.impl = impl;
  k.window = Window2d::pool(3, 2);
  k.ih = ih;
  k.iw = iw;
  k.double_buffer = true;
  return k;
}

TEST(PlanCache, MissThenHit) {
  PlanCache cache(8);
  const ArchConfig arch = ArchConfig::ascend910();
  const PlanKey key = fwd_key(71, 71);
  const akg::PoolPlan first = cache.get(arch, key);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 0);
  const akg::PoolPlan second = cache.get(arch, key);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(first, second);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.5);
}

TEST(PlanCache, CachedPlanEqualsFreshPlan) {
  PlanCache cache(8);
  const ArchConfig arch = ArchConfig::ascend910();
  const PlanKey key = fwd_key(95, 95);
  const akg::PoolPlan cached = cache.get(arch, key);
  const akg::PoolPlan fresh =
      akg::plan_fwd(key.impl, arch, key.window, key.ih, key.iw,
                    key.with_mask, key.double_buffer);
  EXPECT_EQ(cached, fresh);
}

TEST(PlanCache, BackwardKeyUsesBackwardPlanner) {
  PlanCache cache(8);
  const ArchConfig arch = ArchConfig::ascend910();
  PlanKey key = fwd_key(63, 63);
  key.backward = true;
  const akg::PoolPlan cached = cache.get(arch, key);
  const akg::PoolPlan fresh =
      akg::plan_bwd(arch, key.window, key.ih, key.iw, key.double_buffer);
  EXPECT_EQ(cached, fresh);
}

TEST(PlanCache, EvictsLeastRecentlyUsed) {
  PlanCache cache(2);
  const ArchConfig arch = ArchConfig::ascend910();
  const PlanKey a = fwd_key(31, 31), b = fwd_key(41, 41), c = fwd_key(51, 51);
  cache.get(arch, a);
  cache.get(arch, b);
  cache.get(arch, a);  // a is now most recent; b is the LRU entry
  cache.get(arch, c);  // evicts b
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_TRUE(cache.peek(a));
  EXPECT_FALSE(cache.peek(b));
  EXPECT_TRUE(cache.peek(c));
}

TEST(PlanCache, DistinctKeysDistinctEntries) {
  PlanCache cache(16);
  const ArchConfig arch = ArchConfig::ascend910();
  cache.get(arch, fwd_key(71, 71, akg::PoolImpl::kIm2col));
  cache.get(arch, fwd_key(71, 71, akg::PoolImpl::kDirect));
  PlanKey masked = fwd_key(71, 71);
  masked.with_mask = true;
  masked.double_buffer = false;  // mask-fwd plans never double-buffer
  cache.get(arch, masked);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().misses, 3);
}

TEST(PlanKeyFor, MapsOpsToPlanningInputs) {
  const Window2d w = Window2d::pool(3, 2);
  const PoolOp fwd{.kind = PoolOpKind::kMaxFwd, .window = w,
                   .fwd = akg::PoolImpl::kIm2col};
  const auto fk = plan_key_for(fwd, 71, 71, /*double_buffer=*/true);
  ASSERT_TRUE(fk.has_value());
  EXPECT_FALSE(fk->backward);
  EXPECT_FALSE(fk->with_mask);
  EXPECT_TRUE(fk->double_buffer);

  // Mask-producing forward: with_mask set AND double-buffer forced off,
  // matching what the kernel actually plans with.
  const PoolOp mask{.kind = PoolOpKind::kMaxMaskFwd, .window = w,
                    .fwd = akg::PoolImpl::kIm2col};
  const auto mk = plan_key_for(mask, 71, 71, true);
  ASSERT_TRUE(mk.has_value());
  EXPECT_TRUE(mk->with_mask);
  EXPECT_FALSE(mk->double_buffer);

  const PoolOp bwd{.kind = PoolOpKind::kMaxBwd, .window = w,
                   .merge = MergeImpl::kCol2im};
  const auto bk = plan_key_for(bwd, 71, 71, true);
  ASSERT_TRUE(bk.has_value());
  EXPECT_TRUE(bk->backward);

  // Global average pooling has no tiling plan.
  const PoolOp gap{.kind = PoolOpKind::kGlobalAvg};
  EXPECT_FALSE(plan_key_for(gap, 8, 8, true).has_value());
}

// Warm-lane equivalence: a kernel launch with a cached plan attached
// skips run_pool's input check and re-planning entirely, so its outputs
// must be bit-for-bit those of the cold launch that validates and plans
// from scratch.
TEST(WarmLane, PlanHitOutputsMatchPlanMissOutputs) {
  TensorF16 in(Shape{1, 2, 35, 35, kC0});
  in.fill_random_ints(5);
  PoolOp cold;
  cold.kind = PoolOpKind::kMaxFwd;
  cold.window = Window2d::pool(3, 2);
  kernels::PoolInputs pi;
  pi.in = &in;

  Device dev_cold;
  const kernels::PoolResult miss = kernels::run_pool(dev_cold, cold, pi);

  PlanCache cache(4);
  PoolOp warm = cold;
  const auto key = plan_key_for(warm, 35, 35, dev_cold.double_buffer());
  ASSERT_TRUE(key.has_value());
  warm.plan = cache.get(ArchConfig::ascend910(), *key);
  Device dev_warm;
  const kernels::PoolResult hit = kernels::run_pool(dev_warm, warm, pi);

  ASSERT_EQ(miss.out.size(), hit.out.size());
  for (std::int64_t i = 0; i < miss.out.size(); ++i) {
    ASSERT_EQ(miss.out.flat(i).bits(), hit.out.flat(i).bits())
        << "flat " << i;
  }
}

// The warm lane is sound because planning validates the window (a bad
// one must fail on its first, planning, use, so no cached plan carries
// one) and the session checks every request's tensors at admission.
TEST(WarmLane, ValidationFailuresSurfaceAtFirstUse) {
  PlanCache cache(4);
  PlanKey bad = fwd_key(71, 71);
  bad.window.kh = 0;  // invalid: empty window
  EXPECT_THROW(cache.get(ArchConfig::ascend910(), bad), Error);

  // A plan-less launch is checked by run_pool itself.
  TensorF16 in(Shape{1, 1, 16, 16, kC0});
  in.fill_random_ints(2);
  PoolOp op;
  op.kind = PoolOpKind::kMaxFwd;
  op.window = Window2d::pool(3, 2);
  op.window.kh = 0;
  kernels::PoolInputs pi;
  pi.in = &in;
  Device dev;
  EXPECT_THROW(kernels::run_pool(dev, op, pi), Error);
}

TEST(PlanCache, ClearResetsEntriesButKeepsStats) {
  PlanCache cache(4);
  const ArchConfig arch = ArchConfig::ascend910();
  cache.get(arch, fwd_key(31, 31));
  cache.get(arch, fwd_key(31, 31));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  cache.get(arch, fwd_key(31, 31));
  EXPECT_EQ(cache.stats().misses, 2);  // re-planned after clear
  EXPECT_EQ(cache.stats().hits, 1);
}

}  // namespace
}  // namespace davinci::serve
