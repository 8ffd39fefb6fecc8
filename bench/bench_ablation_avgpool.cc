// Ablation A2 (ours): AvgPool equivalents of Figure 7. Section V-C argues
// the same accelerations apply to AvgPool (vadd instead of vmax, plus the
// elementwise division; backward without the Argmax mask); this bench
// measures them on the same InceptionV3 shapes.
#include <cstdio>

#include "harness.h"
#include "kernels/pooling.h"
#include "nets/cnn_tables.h"
#include "ref/pooling_ref.h"

using namespace davinci;

int main(int argc, char** argv) {
  std::string json_path;
  flags::Parser cli("bench_ablation_avgpool");
  cli.flag("json", &json_path, "write the rows as bench JSON here");
  if (cli.parse(argc, argv) != flags::Status::kOk) return cli.report();
  bench::print_preamble("AvgPool forward and backward on Figure 7 shapes",
                        "Ablation A2 (Section V-C of the paper)");
  Device dev;
  bench::JsonReport report("ablation_avgpool");
  // One row per (shape, impl); forward rows are direct / im2col, backward
  // rows vadd / col2im.
  auto json_row = [&](const char* shape, const char* impl, bool ok,
                     const Device::RunResult& run) {
    report.row()
        .field("shape", std::string(shape))
        .field("impl", std::string(impl))
        .field("double_buffer", dev.double_buffer())
        .field("verified", ok)
        .run_fields(run)
        .traffic_fields(run, dev.arch());
  };
  bench::Table fwd("AvgPool forward",
                   {"input (HWC)", "Avgpool", "with Im2col", "speedup",
                    "verified"});
  bench::Table bwd("AvgPool backward",
                   {"input (HWC)", "Avgpool backward", "with Col2im",
                    "speedup", "verified"});

  for (const auto& layer : nets::inception_v3_fig7_layers()) {
    const std::int64_t c1 = c1_of(layer.c);
    const Window2d w = layer.window;
    const TensorF16 in = bench::make_input(1, c1, layer.h, layer.w);

    kernels::PoolOp fop{.kind = kernels::PoolOpKind::kAvgFwd,
                        .window = w,
                        .fwd = akg::PoolImpl::kDirect};
    auto d = kernels::run_pool(dev, fop, {.in = &in});
    fop.fwd = akg::PoolImpl::kIm2col;
    auto i = kernels::run_pool(dev, fop, {.in = &in});
    const TensorF16 want = ref::avgpool_fwd(in, w);
    bool ok = true;
    for (std::int64_t x = 0; x < want.size(); ++x) {
      ok &= d.out.flat(x) == want.flat(x);
      ok &= i.out.flat(x) == want.flat(x);
    }
    char shape[48];
    std::snprintf(shape, sizeof(shape), "%lld,%lld,%lld",
                  static_cast<long long>(layer.h),
                  static_cast<long long>(layer.w),
                  static_cast<long long>(layer.c));
    fwd.add_row({shape, bench::fmt_int(d.cycles()), bench::fmt_int(i.cycles()),
                 bench::fmt_ratio(static_cast<double>(d.cycles()) /
                                  static_cast<double>(i.cycles())),
                 ok ? "bit-exact" : "MISMATCH"});
    json_row(shape, "direct", ok, d.run);
    json_row(shape, "im2col", ok, i.run);

    TensorF16 grad(Shape{1, c1, w.out_h(layer.h), w.out_w(layer.w), kC0});
    grad.fill_random_ints(9, -5, 5);
    kernels::PoolOp bop{.kind = kernels::PoolOpKind::kAvgBwd,
                        .window = w,
                        .merge = kernels::MergeImpl::kVadd};
    const kernels::PoolInputs bwd_in{
        .grad = &grad, .ih = layer.h, .iw = layer.w};
    auto bv = kernels::run_pool(dev, bop, bwd_in);
    bop.merge = kernels::MergeImpl::kCol2im;
    auto bc = kernels::run_pool(dev, bop, bwd_in);
    // Both merges add the scaled planes into each input position in the
    // same (kh, kw) order, so they agree bit for bit.
    bool okb = true;
    for (std::int64_t x = 0; x < bv.grad_in.size(); ++x) {
      okb &= bv.grad_in.flat(x) == bc.grad_in.flat(x);
    }
    bwd.add_row({shape, bench::fmt_int(bv.cycles()),
                 bench::fmt_int(bc.cycles()),
                 bench::fmt_ratio(static_cast<double>(bv.cycles()) /
                                  static_cast<double>(bc.cycles())),
                 okb ? "bit-exact" : "MISMATCH"});
    json_row(shape, "vadd", okb, bv.run);
    json_row(shape, "col2im", okb, bc.run);
  }
  fwd.print();
  bwd.print();
  std::printf(
      "\nExpected shape: speedups track the MaxPool results of Figure 7 --\n"
      "the access pattern, not the reduction function, is what Im2Col and\n"
      "Col2Im fix (Section V-C).\n");
  if (!json_path.empty()) report.write(json_path);
  return 0;
}
