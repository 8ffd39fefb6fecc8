// TensorArena -- the process-wide tensor-pool allocator behind Tensor<T>
// storage (tensor/arena.h). The load-bearing properties: buffers recycle
// across equal-size acquires, results are bit-identical with the arena
// pooling dirty buffers or poisoning every acquire (nothing may rely on
// a freshly zeroed allocation except Tensor's own zero-fill
// constructor), and the kUninitialized construction mode is storage-only.
#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "kernels/pooling.h"
#include "ref/pooling_ref.h"
#include "tensor/arena.h"
#include "tensor/fractal.h"
#include "tensor/tensor.h"

namespace davinci {
namespace {

// RAII guard: every test restores the global arena to its default
// unpoisoned state, whatever it does in between.
struct ArenaGuard {
  ~ArenaGuard() { TensorArena::global().set_poison(false); }
};

std::vector<std::uint16_t> bits_of(const TensorF16& t) {
  std::vector<std::uint16_t> out(static_cast<std::size_t>(t.size()));
  for (std::int64_t i = 0; i < t.size(); ++i) {
    out[static_cast<std::size_t>(i)] = t.flat(i).bits();
  }
  return out;
}

kernels::PoolResult run_maxpool(Device& dev, const TensorF16& in) {
  kernels::PoolOp op;
  op.kind = kernels::PoolOpKind::kMaxFwd;
  op.window = Window2d::pool(3, 2);
  kernels::PoolInputs pi;
  pi.in = &in;
  return kernels::run_pool(dev, op, pi);
}

TEST(TensorArena, ReusesReleasedBuffers) {
  ArenaGuard guard;
  TensorArena& arena = TensorArena::global();
  arena.trim();
  arena.reset_stats();
  { TensorF16 t(Shape{2, 3, 16, 16, kC0}); }
  const auto after_first = arena.stats();
  EXPECT_GE(after_first.allocs, 1);
  EXPECT_GE(after_first.releases, 1);
  { TensorF16 t(Shape{2, 3, 16, 16, kC0}); }
  const auto after_second = arena.stats();
  EXPECT_GE(after_second.reuses, 1)
      << "equal-size reacquire must come from the free list";
}

TEST(TensorArena, ZeroFillConstructionIsZeroEvenUnderPoison) {
  ArenaGuard guard;
  TensorArena::global().set_poison(true);
  TensorF16 t(Shape{1, 1, 4, 4, kC0});
  for (std::int64_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(t.flat(i).bits(), 0u) << "flat " << i;
  }
}

TEST(TensorArena, UninitializedConstructionIsStorageOnly) {
  ArenaGuard guard;
  TensorArena::global().set_poison(true);
  TensorF16 t(Shape{1, 1, 4, 4, kC0}, kUninitialized);
  // Poison mode scribbles 0xA5 over every acquired byte; an uninitialized
  // tensor must expose it (i.e. no hidden zero-fill happened).
  for (std::int64_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(t.flat(i).bits(), 0xA5A5u) << "flat " << i;
  }
}

// The chaos gate: one pooling launch with the arena pooling dirty
// buffers, one with poisoned acquires. Any kernel (or staging path)
// silently relying on recycled-buffer contents or fresh zero-fill
// diverges here.
TEST(TensorArena, KernelOutputsBitIdenticalAcrossArenaModes) {
  ArenaGuard guard;
  TensorArena& arena = TensorArena::global();
  TensorF16 in(Shape{1, 2, 23, 23, kC0});
  in.fill_random_ints(7);

  // Warm the free list so the second run reuses dirty buffers.
  {
    Device warm_dev;
    run_maxpool(warm_dev, in);
  }
  Device dev_pooled;
  const auto pooled = bits_of(run_maxpool(dev_pooled, in).out);

  arena.set_poison(true);
  Device dev_poison;
  const auto poisoned = bits_of(run_maxpool(dev_poison, in).out);

  EXPECT_EQ(pooled, poisoned);
}

// make_outputs leaves the mask uninitialized except its fractal tail rows
// (PP - Oh*Ow per (kh, kw) plane), which no kernel stores. A mask launch
// that lands on a recycled buffer full of stale NaNs must still return
// zero tail rows and exactly the reference mask, for both lowerings.
TEST(TensorArena, MaskOnARecycledDirtyBufferHasZeroTailRows) {
  ArenaGuard guard;
  TensorArena& arena = TensorArena::global();
  const Window2d w = Window2d::pool(3, 2);
  TensorF16 in(Shape{2, 3, 23, 23, kC0});
  in.fill_random_ints(8);
  const TensorF16 want = ref::maxpool_argmax_mask(in, w);
  const std::int64_t patches = w.out_h(23) * w.out_w(23);  // 121
  const std::int64_t pp = want.shape()[4];                 // 128
  ASSERT_GT(pp, patches);
  for (akg::PoolImpl impl : {akg::PoolImpl::kIm2col, akg::PoolImpl::kDirect}) {
    SCOPED_TRACE(akg::to_string(impl));
    arena.trim();
    { TensorF16 dirty(want.shape(), Float16::from_bits(0x7E00)); }
    arena.reset_stats();
    Device dev;
    const kernels::PoolResult got = kernels::run_pool(
        dev,
        kernels::PoolOp{.kind = kernels::PoolOpKind::kMaxMaskFwd,
                        .window = w,
                        .fwd = impl},
        kernels::PoolInputs{.in = &in});
    EXPECT_GE(arena.stats().reuses, 1) << "the mask must reuse the buffer";
    const std::int64_t planes = 2 * 3 * w.kh * w.kw;
    for (std::int64_t p = 0; p < planes; ++p) {
      for (std::int64_t e = patches * kC0; e < pp * kC0; ++e) {
        ASSERT_EQ(got.mask.flat(p * pp * kC0 + e).bits(), 0)
            << "plane " << p << " element " << e;
      }
    }
    EXPECT_EQ(bits_of(got.mask), bits_of(want));
  }
}

TEST(FillRandomInts, ExtremeBoundsDoNotOverflow) {
  // hi - lo + 1 in int arithmetic overflows for these bounds; the widened
  // span must keep the draw well-defined (values land in [lo, hi]).
  TensorF16 t(Shape{1, 1, 2, 2, kC0});
  t.fill_random_ints(3, INT_MIN, INT_MAX);
  SUCCEED();
}

TEST(FillRandomInts, RejectsEmptyRange) {
  TensorF16 t(Shape{1, 1, 2, 2, kC0});
  EXPECT_THROW(t.fill_random_ints(3, 5, 4), Error);
}

TEST(FillRandomInts, SmallRangeTablePathMatchesSeededStream) {
  // The <= 64-value table fast path must consume the RNG stream exactly
  // like the generic path: same seed -> same values as a straightforward
  // re-derivation.
  TensorF16 t(Shape{1, 1, 4, 4, kC0});
  t.fill_random_ints(11, -8, 8);
  Xoshiro256 rng(11);
  for (std::int64_t i = 0; i < t.size(); ++i) {
    const auto draw = static_cast<std::int64_t>(rng.next_below(17));
    EXPECT_EQ(t.flat(i).bits(),
              Float16(static_cast<float>(-8 + draw)).bits())
        << "flat " << i;
  }
}

}  // namespace
}  // namespace davinci
