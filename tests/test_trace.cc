// Tests for the per-core instruction trace.
#include "sim/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "kernels/pooling.h"
#include "sim/ai_core.h"
#include "sim/device.h"
#include "sim/scu.h"
#include "test_util.h"

namespace davinci {
namespace {

using kernels::PoolInputs;
using kernels::PoolOp;
using kernels::PoolOpKind;

TEST(Trace, DisabledByDefaultAndRecordsNothing) {
  AiCore core(0, ArchConfig::ascend910(), CostModel::calibrated());
  auto a = core.ub().alloc<Float16>(128);
  core.vdup_flat(a, Float16(), 128);
  EXPECT_TRUE(core.trace().events().empty());
}

TEST(Trace, RecordsVectorInstructions) {
  AiCore core(0, ArchConfig::ascend910(), CostModel::calibrated());
  core.trace().enable();
  auto a = core.ub().alloc<Float16>(256);
  auto b = core.ub().alloc<Float16>(256);
  core.vdup_flat(a, Float16(1.0f), 256);
  core.vbin_flat(VecOp::kMax, b, a, a, 256);
  ASSERT_EQ(core.trace().events().size(), 2u);
  EXPECT_EQ(core.trace().events()[0].kind, TraceKind::kVector);
  EXPECT_NE(core.trace().events()[0].detail.find("vector_dup"),
            std::string::npos);
  EXPECT_NE(core.trace().events()[1].detail.find("vmax"), std::string::npos);
  EXPECT_NE(core.trace().events()[1].detail.find("repeat=2"),
            std::string::npos);
  EXPECT_GT(core.trace().events()[1].cycles, 0);
}

TEST(Trace, RecordsMteScuAndBarriers) {
  AiCore core(0, ArchConfig::ascend910(), CostModel::calibrated());
  core.trace().enable();
  TensorF16 host(Shape{4, 4, kC0});
  host.fill_random_ints(1);
  auto l1 = core.l1().alloc<Float16>(host.size());
  core.mte().copy(l1, gm_span(host.data(), host.size()), host.size());
  Im2colArgs args;
  args.window = Window2d::pool(2, 2);
  args.ih = 4;
  args.iw = 4;
  auto cols = core.ub().alloc<Float16>(args.output_elems());
  core.scu().im2col_load(cols, l1, args);
  core.pipe_barrier();

  EXPECT_EQ(core.trace().count(TraceKind::kMte), 1);
  EXPECT_EQ(core.trace().count(TraceKind::kIm2col), 1);
  EXPECT_EQ(core.trace().count(TraceKind::kBarrier), 1);
  const std::string text = core.trace().to_string();
  EXPECT_NE(text.find("GM->L1"), std::string::npos);
  EXPECT_NE(text.find("mode1"), std::string::npos);
}

TEST(Trace, ExplainsTheListing1VsListing2Difference) {
  // The trace makes the paper's instruction-count argument literal: the
  // direct kernel's stream is dominated by 16-lane vmax issues, the
  // im2col kernel's by a handful of full-mask issues plus the SCU load.
  Device dev;
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 9, 9, 5);
  const Window2d w = Window2d::pool(3, 2);

  dev.core(0).trace().enable();
  kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
             .fwd = akg::PoolImpl::kDirect},
      PoolInputs{.in = &in});
  std::int64_t direct_16lane = 0;
  for (const auto& e : dev.core(0).trace().events()) {
    if (e.kind == TraceKind::kVector &&
        e.detail.find("vmax") != std::string::npos &&
        e.detail.find("lanes=16") != std::string::npos) {
      ++direct_16lane;
    }
  }
  // Oh*Ow*Kh = 4*4*3 = 48 sixteen-lane vmax issues (Listing 1).
  EXPECT_EQ(direct_16lane, 48);

  dev.core(0).trace().clear();
  kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
             .fwd = akg::PoolImpl::kIm2col},
      PoolInputs{.in = &in});
  std::int64_t im2col_vmax = 0, im2col_loads = 0;
  for (const auto& e : dev.core(0).trace().events()) {
    if (e.kind == TraceKind::kVector &&
        e.detail.find("vmax") != std::string::npos) {
      ++im2col_vmax;
    }
    im2col_loads += e.kind == TraceKind::kIm2col;
  }
  // Kh*Kw = 9 full-mask vmax issues (Listing 2) and one Im2Col load.
  EXPECT_EQ(im2col_vmax, 9);
  EXPECT_EQ(im2col_loads, 1);
  dev.core(0).trace().disable();
}

TEST(Trace, LaunchesOfATracedDeviceRunBackToBack) {
  // Two launches on one traced device, as davinci_pool_cli --compare
  // --profile records them: every core's second launch starts after its
  // first one ends, and each event carries its launch's ordinal.
  Device dev;
  for (int c = 0; c < dev.num_cores(); ++c) dev.core(c).trace().enable();
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 4, 35, 35, 3);
  for (akg::PoolImpl impl : {akg::PoolImpl::kIm2col, akg::PoolImpl::kDirect}) {
    kernels::run_pool(dev,
                      PoolOp{.kind = PoolOpKind::kMaxFwd,
                             .window = Window2d::pool(3, 2), .fwd = impl},
                      PoolInputs{.in = &in});
  }
  int traced = 0;
  for (int c = 0; c < dev.num_cores(); ++c) {
    const Trace& t = dev.core(c).trace();
    if (t.events().empty()) continue;
    ++traced;
    std::int64_t end0 = 0, n1 = 0;
    std::int64_t first1 = std::numeric_limits<std::int64_t>::max();
    for (const TraceEvent& e : t.events()) {
      ASSERT_TRUE(e.launch == 0 || e.launch == 1) << e.launch;
      if (e.launch == 0) {
        EXPECT_EQ(n1, 0) << "core " << c << ": launch 0 after launch 1";
        end0 = std::max(end0, e.start + e.cycles);
      } else {
        ++n1;
        first1 = std::min(first1, e.start);
      }
    }
    ASSERT_GT(n1, 0) << "core " << c;
    EXPECT_GE(first1, end0) << "core " << c;
  }
  EXPECT_GT(traced, 1);
}

TEST(Trace, ClearResets) {
  Trace t;
  t.enable();
  t.record(TraceKind::kVector, "x", 1);
  t.mark_tile(5, +1);
  t.clear();
  EXPECT_TRUE(t.events().empty());
  EXPECT_TRUE(t.tile_marks().empty());
  EXPECT_EQ(t.end(), 0);
  EXPECT_FALSE(t.truncated());
}

TEST(Trace, HandBuiltEventsFollowTheTraceEnd) {
  Trace t;
  t.enable();
  t.record(TraceKind::kVector, "a", 3);
  t.record(TraceKind::kMte, "b", 5, 0, 0, /*start=*/10);
  t.record(TraceKind::kVector, "c", 2);
  ASSERT_EQ(t.events().size(), 3u);
  EXPECT_EQ(t.events()[0].start, 0);
  EXPECT_EQ(t.events()[1].start, 10);
  EXPECT_EQ(t.events()[2].start, 15);
  EXPECT_EQ(t.end(), 17);
  t.begin_launch(1, t.end());
  t.record(TraceKind::kVector, "d", 1, 0, 0, /*start=*/4);
  EXPECT_EQ(t.events()[3].start, 21);
  EXPECT_EQ(t.events()[3].launch, 1);
}

TEST(Trace, BoundedRecording) {
  Trace t;
  t.enable();
  for (std::size_t i = 0; i < Trace::kMaxEvents + 10; ++i) {
    t.record(TraceKind::kVector, "x", 1);
  }
  EXPECT_EQ(t.events().size(), Trace::kMaxEvents);
  EXPECT_TRUE(t.truncated());
  EXPECT_NE(t.to_string(4).find("truncated"), std::string::npos);
}

TEST(Trace, ToStringLimitsLines) {
  Trace t;
  t.enable();
  for (int i = 0; i < 10; ++i) t.record(TraceKind::kVector, "ev", 1);
  const std::string s = t.to_string(3);
  EXPECT_NE(s.find("7 more"), std::string::npos);
}

}  // namespace
}  // namespace davinci
