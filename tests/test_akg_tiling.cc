// Tests for the AKG-like tile planner: UB footprints, plan feasibility,
// tile geometry, and the Figure 8 tiling threshold.
#include "akg/tiling.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace davinci::akg {
namespace {

const ArchConfig kArch = ArchConfig::ascend910();

TEST(Tiling, FootprintOrdering) {
  // For overlapping windows: direct < im2col (duplication) < expansion
  // (input + duplication + output).
  const Window2d w = Window2d::pool(3, 2);
  const std::int64_t d = ub_bytes_fwd(PoolImpl::kDirect, w, 8, 33, false);
  const std::int64_t i = ub_bytes_fwd(PoolImpl::kIm2col, w, 8, 33, false);
  const std::int64_t e = ub_bytes_fwd(PoolImpl::kExpansion, w, 8, 33, false);
  EXPECT_LT(d, i);
  EXPECT_LT(i, e);
}

TEST(Tiling, FootprintMonotoneInTileRows) {
  const Window2d w = Window2d::pool(3, 2);
  for (auto impl : {PoolImpl::kDirect, PoolImpl::kIm2col,
                    PoolImpl::kExpansion, PoolImpl::kXYSplit}) {
    std::int64_t prev = 0;
    for (std::int64_t oh = 1; oh <= 16; ++oh) {
      const std::int64_t b = ub_bytes_fwd(impl, w, oh, 65, false);
      EXPECT_GE(b, prev) << to_string(impl) << " oh=" << oh;
      prev = b;
    }
  }
}

TEST(Tiling, MaskAddsFootprint) {
  const Window2d w = Window2d::pool(3, 2);
  EXPECT_GT(ub_bytes_fwd(PoolImpl::kIm2col, w, 8, 33, true),
            ub_bytes_fwd(PoolImpl::kIm2col, w, 8, 33, false));
}

TEST(Tiling, PlanFitsUnifiedBuffer) {
  const Window2d w = Window2d::pool(3, 2);
  for (auto impl : {PoolImpl::kDirect, PoolImpl::kIm2col,
                    PoolImpl::kExpansion, PoolImpl::kXYSplit}) {
    const PoolPlan p = plan_fwd(impl, kArch, w, 147, 147, false);
    EXPECT_GE(p.oh_tile, 1);
    EXPECT_LE(ub_bytes_fwd(impl, w, p.oh_tile, 147, false), kArch.ub_bytes);
    // Maximality: one more row must not fit (unless already untiled).
    if (p.num_h_tiles > 1) {
      EXPECT_GT(ub_bytes_fwd(impl, w, p.oh_tile + 1, 147, false),
                kArch.ub_bytes)
          << to_string(impl);
    }
  }
}

TEST(Tiling, SmallInputsNeedNoTiling) {
  const Window2d w = Window2d::pool(3, 2);
  const PoolPlan p = plan_fwd(PoolImpl::kIm2col, kArch, w, 35, 35, false);
  EXPECT_EQ(p.num_h_tiles, 1);
  EXPECT_EQ(p.oh_tile, 17);
}

TEST(Tiling, InceptionLargestInputIsTiled) {
  const Window2d w = Window2d::pool(3, 2);
  // (147, 147): a full slice needs ~691 KiB for the input alone.
  const PoolPlan pd = plan_fwd(PoolImpl::kDirect, kArch, w, 147, 147, false);
  EXPECT_GT(pd.num_h_tiles, 1);
  const PoolPlan pi = plan_fwd(PoolImpl::kIm2col, kArch, w, 147, 147, false);
  EXPECT_GT(pi.num_h_tiles, 1);
  // The im2col footprint is larger, so its tiles are no taller.
  EXPECT_LE(pi.oh_tile, pd.oh_tile);
}

TEST(Tiling, HTileCoversOutputExactly) {
  const Window2d w = Window2d::pool(3, 2);
  const std::int64_t ih = 147, oh = w.out_h(ih);
  const PoolPlan p = plan_fwd(PoolImpl::kIm2col, kArch, w, ih, 147, false);
  std::int64_t covered = 0;
  for (std::int64_t t = 0; t < p.num_h_tiles; ++t) {
    const HTile ht = h_tile(w, ih, oh, p.oh_tile, t);
    EXPECT_EQ(ht.o0, covered);
    EXPECT_GT(ht.out_rows(), 0);
    // Input rows must match the window equation for the tile.
    EXPECT_EQ(ht.in_rows() + ht.pt_eff + ht.pb_eff,
              (ht.out_rows() - 1) * w.sh + w.kh);
    covered = ht.o1;
  }
  EXPECT_EQ(covered, oh);
}

TEST(Tiling, HTilesOverlapByKhMinusSh) {
  const Window2d w = Window2d::pool(3, 2);
  const std::int64_t ih = 99, oh = w.out_h(ih);
  const HTile t0 = h_tile(w, ih, oh, 10, 0);
  const HTile t1 = h_tile(w, ih, oh, 10, 1);
  EXPECT_EQ(t0.y1 - t1.y0, w.kh - w.sh);
}

TEST(Tiling, PaddedTilesGetVirtualPadding) {
  Window2d w = Window2d::pool(3, 2);
  w.pt = 1;
  w.pb = 1;
  // (41 + 2 - 3) / 2 + 1 = 21; the last patch covers virtual rows 40..42,
  // i.e. real rows 39..40 plus one bottom-padding row.
  const std::int64_t ih = 41, oh = w.out_h(ih);
  ASSERT_EQ(oh, 21);
  const HTile first = h_tile(w, ih, oh, 5, 0);
  EXPECT_EQ(first.pt_eff, 1);
  EXPECT_EQ(first.y0, 0);
  const HTile last = h_tile(w, ih, oh, 5, 4);
  EXPECT_EQ(last.pb_eff, 1);
  EXPECT_EQ(last.y1, ih);
  const HTile mid = h_tile(w, ih, oh, 5, 1);
  EXPECT_EQ(mid.pt_eff, 0);
  EXPECT_EQ(mid.pb_eff, 0);
}

TEST(Tiling, BackwardPlanFits) {
  const Window2d w = Window2d::pool(3, 2);
  const PoolPlan p = plan_bwd(kArch, w, 147, 147);
  EXPECT_GE(p.oh_tile, 1);
  EXPECT_LE(ub_bytes_bwd(p.oh_tile, 147, w), kArch.ub_bytes);
}

TEST(Tiling, ThresholdPropertiesStride2) {
  const Window2d w = Window2d::pool(3, 2);
  const std::int64_t h = tiling_threshold(kArch, w);
  EXPECT_GT(h, w.kh);
  // At the threshold every implementation fits untiled...
  for (auto impl : {PoolImpl::kDirect, PoolImpl::kIm2col,
                    PoolImpl::kExpansion}) {
    EXPECT_LE(ub_bytes_fwd(impl, w, w.out_h(h), h, false), kArch.ub_bytes)
        << to_string(impl);
  }
  // ...and two rows further at least one does not.
  const std::int64_t h2 = h + 2;
  const bool all_fit =
      ub_bytes_fwd(PoolImpl::kDirect, w, w.out_h(h2), h2, false) <=
          kArch.ub_bytes &&
      ub_bytes_fwd(PoolImpl::kIm2col, w, w.out_h(h2), h2, false) <=
          kArch.ub_bytes &&
      ub_bytes_fwd(PoolImpl::kExpansion, w, w.out_h(h2), h2, false) <=
          kArch.ub_bytes &&
      h2 * h2 * kC0 * 2 <= kArch.l1_bytes;
  EXPECT_FALSE(all_fit);
}

TEST(Tiling, ThresholdShrinksWithOverlap) {
  // Stride (1,1) duplicates 9x the data in the im2col form, so the
  // threshold is much smaller than at stride (3,3) where there is no
  // duplication.
  const std::int64_t t1 = tiling_threshold(kArch, Window2d::pool(3, 1));
  const std::int64_t t2 = tiling_threshold(kArch, Window2d::pool(3, 2));
  const std::int64_t t3 = tiling_threshold(kArch, Window2d::pool(3, 3));
  EXPECT_LT(t1, t2);
  EXPECT_LT(t2, t3);
}

TEST(Tiling, XYSplitConstraintTightensThreshold) {
  const Window2d w = Window2d::pool(3, 2);
  EXPECT_LE(tiling_threshold(kArch, w, /*with_xysplit=*/true),
            tiling_threshold(kArch, w));
}

TEST(Tiling, ImplNames) {
  EXPECT_STREQ(to_string(PoolImpl::kDirect), "direct");
  EXPECT_STREQ(to_string(PoolImpl::kIm2col), "im2col");
  EXPECT_STREQ(to_string(PoolImpl::kExpansion), "expansion");
  EXPECT_STREQ(to_string(PoolImpl::kXYSplit), "xysplit");
}

}  // namespace
}  // namespace davinci::akg
