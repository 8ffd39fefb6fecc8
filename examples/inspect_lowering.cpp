// Prints the instruction streams ("lowered CCE-C view") of the standard
// and the Im2col-based MaxPool kernels side by side on a small input --
// making the paper's Listing 1 vs Listing 2 argument literal: the
// standard lowering issues Oh*Ow*Kh sixteen-lane vmax instructions; the
// Im2col lowering issues one Im2Col load and Kh*Kw saturated-mask vmax
// sequences.
//
//   $ ./examples/inspect_lowering
#include <cstdio>

#include "kernels/pooling.h"
#include "sim/trace.h"
#include "tensor/fractal.h"

using namespace davinci;

namespace {

void show(Device& dev, akg::PoolImpl impl, const TensorF16& in,
          const Window2d& w) {
  dev.core(0).trace().clear();
  dev.core(0).trace().enable();
  auto r = kernels::run_pool(
      dev, {.kind = kernels::PoolOpKind::kMaxFwd, .window = w, .fwd = impl},
      {.in = &in});
  std::printf("--- %s lowering: %lld cycles, %lld vector instructions, "
              "lane utilization %.0f%% ---\n",
              akg::to_string(impl), static_cast<long long>(r.cycles()),
              static_cast<long long>(r.run.profile.vec.instrs),
              100.0 * r.run.profile.vec_lane_utilization());
  std::printf("%s\n", dev.core(0).trace().to_string(28).c_str());
  dev.core(0).trace().disable();
}

}  // namespace

int main() {
  Device dev;
  // Small enough that the whole stream is readable: 9x9, K(3,3), S(2,2)
  // -> 4x4 patches.
  TensorF16 in(Shape{1, 1, 9, 9, kC0});
  in.fill_random_ints(3);
  const Window2d w = Window2d::pool(3, 2);

  std::printf(
      "MaxPool 9x9 -> 4x4, K(3,3) S(2,2): what actually executes.\n\n");
  show(dev, akg::PoolImpl::kDirect, in, w);
  show(dev, akg::PoolImpl::kIm2col, in, w);
  std::printf(
      "Note how the direct stream repeats 'vmax repeat=3 lanes=16' once per\n"
      "output element and kernel row (Listing 1), while the im2col stream\n"
      "is one IM2COL load plus nine full-mask vmax issues (Listing 2).\n");
  return 0;
}
