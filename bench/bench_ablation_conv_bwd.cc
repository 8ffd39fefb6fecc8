// Ablation A7 (ours): the Figure-7c comparison on Col2Im's *original*
// workload -- convolution backward-input (Section II-B: "Col2im is used
// in the backward propagation pass of convolutional layers implemented
// with Im2col"). The unrolled gradient dCols = dOut x W^T is produced on
// the Cube Unit either way; only the merge differs.
#include <cstdio>

#include "harness.h"
#include "kernels/conv2d_bwd.h"
#include "ref/conv_ref.h"

using namespace davinci;

int main(int argc, char** argv) {
  flags::Parser cli("bench_ablation_conv_bwd");
  if (cli.parse(argc, argv) != flags::Status::kOk) return cli.report();
  bench::print_preamble(
      "Convolution backward-input: vadd merge vs Col2Im merge",
      "Ablation A7 (Section II-B: Col2im's original role)");
  Device dev;
  bench::Table table("conv backward-input, Cout=32, K(3,3)",
                     {"input (HWC)", "stride", "vadd merge", "Col2Im merge",
                      "speedup", "verified"});

  struct Case {
    std::int64_t c, h, s;
  };
  for (const Case& cs : {Case{16, 23, 2}, Case{16, 35, 2}, Case{32, 35, 2},
                         Case{16, 20, 1}, Case{16, 24, 3}}) {
    const Window2d w = Window2d::pool(3, cs.s);
    TensorF32 weights(Shape{32, cs.c, 3, 3});
    weights.fill_random_ints(41, -2, 2);
    TensorF32 grad_nchw(Shape{1, 32, w.out_h(cs.h), w.out_w(cs.h)});
    grad_nchw.fill_random_ints(42, -2, 2);
    const TensorF16 grad = nchw_to_nc1hwc0(grad_nchw);

    auto vadd = kernels::conv2d_backward_input(
        dev, grad, weights, w, cs.h, cs.h, kernels::MergeImpl::kVadd);
    auto col2im = kernels::conv2d_backward_input(
        dev, grad, weights, w, cs.h, cs.h, kernels::MergeImpl::kCol2im);
    bool ok = true;
    for (std::int64_t i = 0; i < vadd.grad_in.size(); ++i) {
      ok &= vadd.grad_in.flat(i) == col2im.grad_in.flat(i);
    }

    char shape[48], stride[16];
    std::snprintf(shape, sizeof(shape), "%lld,%lld,%lld",
                  static_cast<long long>(cs.h), static_cast<long long>(cs.h),
                  static_cast<long long>(cs.c));
    std::snprintf(stride, sizeof(stride), "(%lld,%lld)",
                  static_cast<long long>(cs.s), static_cast<long long>(cs.s));
    table.add_row({shape, stride, bench::fmt_int(vadd.cycles()),
                   bench::fmt_int(col2im.cycles()),
                   bench::fmt_ratio(static_cast<double>(vadd.cycles()) /
                                    static_cast<double>(col2im.cycles())),
                   ok ? "bit-exact" : "MISMATCH"});
  }
  table.print();
  std::printf(
      "\nReading: the same merge-step replacement that gives pooling its\n"
      "Figure-7c speedup applies to convolution training -- the\n"
      "instruction's designed-for case.\n");
  return 0;
}
