// Ablation A3 (ours): the Im2Col instruction at its original job --
// feeding convolution to the Cube Unit -- compared against building the
// same unrolled layout with regular vector instructions ("expansion") and
// staging it into L0A. Mirrors what Figure 8 measures for pooling, on the
// instruction's original substrate.
#include <cstdio>

#include "harness.h"
#include "kernels/conv2d.h"
#include "ref/conv_ref.h"

using namespace davinci;

int main(int argc, char** argv) {
  flags::Parser cli("bench_ablation_conv_cube");
  if (cli.parse(argc, argv) != flags::Status::kOk) return cli.report();
  bench::print_preamble(
      "Convolution on the Cube Unit: Im2Col-load vs vector expansion",
      "Ablation A3 (Sections II-A / III of the paper)");
  Device dev;
  bench::Table table("conv2d, Cout=32, K(3,3)",
                     {"input (HWC)", "stride", "Im2Col load", "expansion",
                      "benefit", "verified"});

  struct Case {
    std::int64_t c, h, s;
  };
  for (const Case& cs : {Case{16, 16, 1}, Case{16, 28, 1}, Case{32, 20, 1},
                         Case{16, 28, 2}, Case{32, 28, 2}}) {
    const Window2d w = Window2d::pool(3, cs.s);
    TensorF32 in_nchw(Shape{1, cs.c, cs.h, cs.h});
    in_nchw.fill_random_ints(11, -2, 2);
    TensorF32 weights(Shape{32, cs.c, 3, 3});
    weights.fill_random_ints(12, -2, 2);
    const TensorF16 in = nchw_to_nc1hwc0(in_nchw);

    auto fast = kernels::conv2d_cube(dev, in, weights, w, true);
    auto slow = kernels::conv2d_cube(dev, in, weights, w, false);
    bool ok = true;
    for (std::int64_t i = 0; i < fast.out.size(); ++i) {
      ok &= fast.out.flat(i) == slow.out.flat(i);
    }
    const TensorF32 want = ref::conv2d_nchw(in_nchw, weights, w);
    const TensorF32 got = nc1hwc0_to_nchw(fast.out, 32);
    for (std::int64_t i = 0; i < want.size(); ++i) {
      ok &= got.flat(i) == Float16(want.flat(i)).to_float();
    }

    char shape[64], stride[48];  // room for any three / two int64s
    std::snprintf(shape, sizeof(shape), "%lld,%lld,%lld",
                  static_cast<long long>(cs.h), static_cast<long long>(cs.h),
                  static_cast<long long>(cs.c));
    std::snprintf(stride, sizeof(stride), "(%lld,%lld)",
                  static_cast<long long>(cs.s), static_cast<long long>(cs.s));
    table.add_row({shape, stride, bench::fmt_int(fast.cycles()),
                   bench::fmt_int(slow.cycles()),
                   bench::fmt_ratio(static_cast<double>(slow.cycles()) /
                                    static_cast<double>(fast.cycles())),
                   ok ? "bit-exact" : "MISMATCH"});
  }
  table.print();
  std::printf(
      "\nReading: transforming during the load (no temporaries, no extra\n"
      "staging) is why DaVinci made Im2Col an instruction -- the same\n"
      "property the pooling kernels exploit on the Vector Unit.\n");
  return 0;
}
