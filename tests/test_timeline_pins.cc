// Pins the simulated timelines of the kernels whose per-patch instruction
// loops run as instruction runs (sim/vector_unit.h): device cycles, serial
// cycles and the critical path (segment count, busy and stall totals),
// with double buffering on and off. The values were recorded when each
// baseline issued its instructions one at a time; a run must cost exactly
// its issues, so none may move. A mask launch runs serially whatever the
// double-buffer policy, so its two timelines agree.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <ostream>

#include "kernels/conv2d_bwd.h"
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

struct Timeline {
  std::int64_t cycles = 0;    // device_cycles
  std::int64_t serial = 0;    // device_cycles_serial
  std::int64_t segments = 0;  // critical-path segments
  std::int64_t busy = 0;      // their busy cycles
  std::int64_t stall = 0;     // their stall cycles

  friend bool operator==(const Timeline&, const Timeline&) = default;
  friend std::ostream& operator<<(std::ostream& os, const Timeline& t) {
    return os << "{" << t.cycles << ", " << t.serial << ", " << t.segments
              << ", " << t.busy << ", " << t.stall << "}";
  }
};

Timeline timeline_of(const Device::RunResult& run) {
  EXPECT_FALSE(run.attribution.path_truncated);
  Timeline t{run.device_cycles, run.device_cycles_serial,
             static_cast<std::int64_t>(run.attribution.critical_path().size())};
  for (const CritSegment& s : run.attribution.critical_path()) {
    (s.kind == CritSegment::Kind::kBusy ? t.busy : t.stall) += s.length();
  }
  return t;
}

// Runs `launch` with double buffering on, then off, and compares both
// timelines with the pinned ones.
void expect_pinned(const std::function<Device::RunResult(Device&)>& launch,
                   const Timeline& db_on, const Timeline& db_off) {
  Device dev;
  dev.set_double_buffer(true);
  EXPECT_EQ(timeline_of(launch(dev)), db_on) << "double buffering on";
  dev.set_double_buffer(false);
  EXPECT_EQ(timeline_of(launch(dev)), db_off) << "double buffering off";
}

Device::RunResult forward(Device& dev, PoolOpKind kind, PoolImpl impl,
                          const Window2d& w, std::int64_t c1,
                          std::int64_t h) {
  const TensorF16 in = testutil::random_int_nc1hwc0(1, c1, h, h, 71);
  return kernels::run_pool(dev, PoolOp{.kind = kind, .window = w, .fwd = impl},
                           PoolInputs{.in = &in})
      .run;
}

Device::RunResult backward(Device& dev, PoolOpKind kind, const Window2d& w,
                           std::int64_t c1, std::int64_t h) {
  const TensorF16 in = testutil::random_int_nc1hwc0(1, c1, h, h, 72);
  const TensorF16 mask = ref::maxpool_argmax_mask(in, w);
  const TensorF16 grad =
      testutil::random_int_nc1hwc0(1, c1, w.out_h(h), w.out_w(h), 73);
  return kernels::run_pool(
             dev,
             PoolOp{.kind = kind, .window = w, .merge = MergeImpl::kVadd},
             PoolInputs{.mask = kind == PoolOpKind::kMaxBwd ? &mask : nullptr,
                        .grad = &grad,
                        .ih = h,
                        .iw = h})
      .run;
}

TEST(TimelinePins, DirectMaxPool147x147x64) {
  expect_pinned(
      [](Device& dev) {
        return forward(dev, PoolOpKind::kMaxFwd, PoolImpl::kDirect,
                       Window2d::pool(3, 2), 4, 147);
      },
      {113632, 121371, 32006, 113488, 144},
      {120355, 120355, 32003, 120355, 0});
}

TEST(TimelinePins, DirectMaxPoolWithMask) {
  expect_pinned(
      [](Device& dev) {
        return forward(dev, PoolOpKind::kMaxMaskFwd, PoolImpl::kDirect,
                       Window2d::pool(3, 2), 2, 71);
      },
      {56984, 56984, 14724, 56984, 0},
      {56984, 56984, 14724, 56984, 0});
}

TEST(TimelinePins, TiledIm2colMaxPoolWithMask) {
  const Timeline serial{56155, 56155, 646, 56155, 0};
  expect_pinned(
      [](Device& dev) {
        return forward(dev, PoolOpKind::kMaxMaskFwd, PoolImpl::kIm2col,
                       Window2d::pool(3, 2), 4, 147);
      },
      serial, serial);
}

// The direct mask reduces with the 16-lane form at Sw == 1 too.
TEST(TimelinePins, DirectMaxPoolWithMaskStride1) {
  const Timeline serial{6984, 6984, 1736, 6984, 0};
  expect_pinned(
      [](Device& dev) {
        return forward(dev, PoolOpKind::kMaxMaskFwd, PoolImpl::kDirect,
                       Window2d::pool(3, 1), 1, 14);
      },
      serial, serial);
}

TEST(TimelinePins, PaddedIm2colMaxPoolWithMask) {
  Window2d w = Window2d::pool(3, 2);
  w.pt = w.pb = w.pl = w.pr = 1;
  const Timeline serial{3686, 3686, 44, 3686, 0};
  expect_pinned(
      [&](Device& dev) {
        return forward(dev, PoolOpKind::kMaxMaskFwd, PoolImpl::kIm2col, w, 2,
                       35);
      },
      serial, serial);
}

TEST(TimelinePins, XYSplitStride2) {
  expect_pinned(
      [](Device& dev) {
        return forward(dev, PoolOpKind::kMaxFwd, PoolImpl::kXYSplit,
                       Window2d::pool(3, 2), 2, 71);
      },
      {27547, 29341, 7395, 27499, 48},
      {28875, 28875, 7510, 28875, 0});
}

TEST(TimelinePins, VaddMergeMaxPoolBackward) {
  expect_pinned(
      [](Device& dev) {
        return backward(dev, PoolOpKind::kMaxBwd, Window2d::pool(3, 2), 1,
                        147);
      },
      {265342, 273637, 96421, 264798, 544},
      {273157, 273157, 96478, 273157, 0});
}

TEST(TimelinePins, VaddMergeAvgPoolBackward) {
  expect_pinned(
      [](Device& dev) {
        return backward(dev, PoolOpKind::kAvgBwd, Window2d::pool(3, 2), 1,
                        147);
      },
      {250494, 254771, 96053, 249806, 688},
      {254291, 254291, 96104, 254291, 0});
}

TEST(TimelinePins, VaddMergePaddedAvgPoolBackward) {
  Window2d w = Window2d::pool(3, 2);
  w.pt = w.pb = w.pl = w.pr = 1;
  expect_pinned(
      [&](Device& dev) {
        return backward(dev, PoolOpKind::kAvgBwd, w, 2, 35);
      },
      {14293, 14549, 5419, 14245, 48},
      {14549, 14549, 5420, 14549, 0});
}

TEST(TimelinePins, VaddMergeConv2dBackward) {
  const Window2d w = Window2d::pool(3, 2);
  TensorF32 weights(Shape{32, 16, w.kh, w.kw});
  weights.fill_random_ints(74, -2, 2);
  const TensorF16 grad =
      testutil::random_int_nc1hwc0(1, 2, w.out_h(35), w.out_w(35), 75);
  expect_pinned(
      [&](Device& dev) {
        return kernels::conv2d_backward_input(dev, grad, weights, w, 35, 35,
                                              MergeImpl::kVadd)
            .run;
      },
      {17313, 17313, 5229, 17313, 0},
      {17313, 17313, 5229, 17313, 0});
}

}  // namespace
}  // namespace davinci
