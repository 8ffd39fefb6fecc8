// Quickstart: run one MaxPool layer through the simulated DaVinci device
// with both the standard and the Im2col-based implementation, verify the
// results against the reference, and print the cycle counts.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "kernels/pooling.h"
#include "ref/pooling_ref.h"
#include "tensor/fractal.h"

using namespace davinci;

int main() {
  // A pooling layer like InceptionV3's third maxpool: 35x35, 288 channels,
  // kernel (3,3), stride (2,2), no padding.
  const std::int64_t channels = 288, h = 35, w_ = 35;
  const Window2d window = Window2d::pool(/*k=*/3, /*s=*/2);

  // 1. Build the input in NCHW fp32 and convert to the NC1HWC0 fractal
  //    layout the hardware consumes (C0 = 16 for Float16).
  TensorF32 image(Shape{1, channels, h, w_});
  image.fill_random(/*seed=*/42);
  const TensorF16 input = nchw_to_nc1hwc0(image);
  std::printf("input  NCHW (1, %lld, %lld, %lld) -> NC1HWC0 %s\n",
              static_cast<long long>(channels), static_cast<long long>(h),
              static_cast<long long>(w_), input.shape().to_string().c_str());

  // 2. A simulated Ascend-910-like device: 32 AI Cores, each with the
  //    scratch-pad buffers, Vector/Cube units and the SCU that executes
  //    the Im2Col / Col2Im instructions.
  Device dev;

  // 3. Run both forward implementations through the unified PoolOp entry
  //    point -- the descriptor names the operator, the window, and the
  //    lowering; the tensors arrive separately.
  kernels::PoolOp op{.kind = kernels::PoolOpKind::kMaxFwd,
                     .window = window,
                     .fwd = akg::PoolImpl::kDirect};
  auto direct = kernels::run_pool(dev, op, {.in = &input});
  op.fwd = akg::PoolImpl::kIm2col;
  auto im2col = kernels::run_pool(dev, op, {.in = &input});

  // 4. Verify against the reference implementation.
  const TensorF16 want = ref::maxpool_fwd(input, window);
  for (std::int64_t i = 0; i < want.size(); ++i) {
    if (!(direct.out.flat(i) == want.flat(i)) ||
        !(im2col.out.flat(i) == want.flat(i))) {
      std::fprintf(stderr, "verification FAILED at element %lld\n",
                   static_cast<long long>(i));
      return 1;
    }
  }

  // 5. Report what the paper's Figure 7a reports: cycle counts.
  std::printf("output NC1HWC0 %s (verified bit-exact)\n\n",
              direct.out.shape().to_string().c_str());
  std::printf("standard TVM lowering : %8lld cycles  (lane util %.0f%%)\n",
              static_cast<long long>(direct.cycles()),
              100.0 * direct.run.profile.vec_lane_utilization());
  std::printf("Im2col-based lowering : %8lld cycles  (lane util %.0f%%)\n",
              static_cast<long long>(im2col.cycles()),
              100.0 * im2col.run.profile.vec_lane_utilization());
  std::printf("speedup               : %.2fx\n",
              static_cast<double>(direct.cycles()) /
                  static_cast<double>(im2col.cycles()));
  std::printf(
      "\nWhy: the Im2Col load rearranges the tile so the (Kh, Kw) reduction\n"
      "axes are outermost; one vmax with a saturated 128-lane mask then\n"
      "reduces a whole kernel-position plane (%lld issues instead of %lld).\n",
      static_cast<long long>(im2col.run.profile.vec.instrs),
      static_cast<long long>(direct.run.profile.vec.instrs));
  return 0;
}
