// Ablation A4 (ours): the paper's future-work item -- fusing AvgPool into
// the preceding convolution as a single Cube-Unit matrix multiplication
// (Suita et al.) -- compared against the two-stage pipeline using the
// Im2col-based AvgPool of this paper.
#include <cstdio>

#include "harness.h"
#include "kernels/fused_conv_pool.h"
#include "kernels/pooling.h"

using namespace davinci;

int main(int argc, char** argv) {
  flags::Parser cli("bench_ablation_fusion");
  if (cli.parse(argc, argv) != flags::Status::kOk) return cli.report();
  bench::print_preamble(
      "Conv + AvgPool: two-stage (Cube conv + Vector pooling) vs fused "
      "composite-kernel Cube pass",
      "Ablation A4 (Section VIII future work; Suita et al.)");
  Device dev;
  bench::Table table("conv K(3,3) S(1,1) -> avgpool K(2,2) S(2,2), Cout=16",
                     {"input (HWC)", "conv", "+ avgpool", "two-stage total",
                      "fused", "benefit"});

  for (std::int64_t h : {14, 22, 30}) {
    TensorF32 in_nchw(Shape{1, 16, h, h});
    in_nchw.fill_random_ints(31, -2, 2);
    TensorF32 w(Shape{16, 16, 3, 3});
    w.fill_random_ints(32, -1, 1);
    const Window2d conv = Window2d::pool(3, 1);
    const Window2d pool = Window2d::pool(2, 2);

    const TensorF16 in = nchw_to_nc1hwc0(in_nchw);
    auto conv_r = kernels::conv2d_cube(dev, in, w, conv);
    auto pool_r = kernels::run_pool(dev,
                                    {.kind = kernels::PoolOpKind::kAvgFwd,
                                     .window = pool,
                                     .fwd = akg::PoolImpl::kIm2col},
                                    {.in = &conv_r.out});
    auto fused = kernels::conv2d_avgpool_fused(dev, in, w, conv, pool);

    // Numerics: paths round fp16 at different points; stay within 0.5.
    bool ok = fused.out.shape() == pool_r.out.shape();
    for (std::int64_t i = 0; ok && i < fused.out.size(); ++i) {
      const float d =
          fused.out.flat(i).to_float() - pool_r.out.flat(i).to_float();
      ok &= d < 0.5f && d > -0.5f;
    }
    if (!ok) {
      std::fprintf(stderr, "fusion verification FAILED at h=%lld\n",
                   static_cast<long long>(h));
      return 1;
    }

    char shape[48];
    std::snprintf(shape, sizeof(shape), "%lld,%lld,16",
                  static_cast<long long>(h), static_cast<long long>(h));
    const std::int64_t two_stage = conv_r.cycles() + pool_r.cycles();
    table.add_row({shape, bench::fmt_int(conv_r.cycles()),
                   bench::fmt_int(pool_r.cycles()),
                   bench::fmt_int(two_stage), bench::fmt_int(fused.cycles()),
                   bench::fmt_ratio(static_cast<double>(two_stage) /
                                    static_cast<double>(fused.cycles()))});
  }
  table.print();
  std::printf(
      "\nReading: fusion removes the Vector-Unit pooling pass and its GM\n"
      "round trip, at the price of a larger composite kernel in the Cube\n"
      "pass. It applies only to AvgPool -- MaxPool is not linear, which is\n"
      "why the paper's Im2col/Col2im pooling remains necessary.\n");
  return 0;
}
