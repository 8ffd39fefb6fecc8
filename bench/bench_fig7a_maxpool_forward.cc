// Figure 7a: MaxPool forward, standard TVM lowering vs Im2Col-based, on
// the three InceptionV3 input sizes (147,147,64), (71,71,192), (35,35,288)
// with K(3,3), S(2,2), no padding, NC1HWC0, 32-core device.
//
// Cycles are the pipe-overlap makespan (double-buffered schedule); the
// serial column is the same instruction stream charged in order. Under
// --no-double-buffer (the legacy single-buffer schedule) the two cycle
// columns agree.
#include <cstdio>

#include "harness.h"
#include "kernels/pooling.h"
#include "nets/cnn_tables.h"
#include "ref/pooling_ref.h"

using namespace davinci;

int main(int argc, char** argv) {
  std::string json_path, profile;
  bool no_double_buffer = false;
  flags::Parser cli("bench_fig7a_maxpool_forward");
  cli.flag("json", &json_path, "write the rows as bench JSON here")
      .flag("no-double-buffer", &no_double_buffer, "single-buffer schedule")
      .flag("profile", &profile, "write every core's Chrome trace here");
  if (cli.parse(argc, argv) != flags::Status::kOk) return cli.report();
  bench::print_preamble("MaxPool forward: standard vs Im2col-based",
                        "Figure 7a (IPDPSW 2021)");
  Device dev;
  if (!profile.empty()) bench::enable_profiling(dev);
  dev.set_double_buffer(!no_double_buffer);
  bench::JsonReport report("fig7a_maxpool_forward");

  bench::Table table("Figure 7a -- cycle count by input size",
                     {"input (HWC)", "Maxpool", "Maxpool with Im2col",
                      "speedup", "im2col serial", "im2col host", "verified"});
  for (const auto& layer : nets::inception_v3_fig7_layers()) {
    const std::int64_t c1 = c1_of(layer.c);
    const TensorF16 in = bench::make_input(1, c1, layer.h, layer.w);
    kernels::PoolOp op{.kind = kernels::PoolOpKind::kMaxFwd,
                       .window = layer.window,
                       .fwd = akg::PoolImpl::kDirect};
    auto direct = kernels::run_pool(dev, op, {.in = &in});
    op.fwd = akg::PoolImpl::kIm2col;
    auto im2col = kernels::run_pool(dev, op, {.in = &in});
    const TensorF16 want = ref::maxpool_fwd(in, layer.window);
    bool ok = true;
    for (std::int64_t i = 0; i < want.size(); ++i) {
      ok &= direct.out.flat(i) == want.flat(i);
      ok &= im2col.out.flat(i) == want.flat(i);
    }
    char shape[48];
    std::snprintf(shape, sizeof(shape), "%lld,%lld,%lld",
                  static_cast<long long>(layer.h),
                  static_cast<long long>(layer.w),
                  static_cast<long long>(layer.c));
    table.add_row({shape, bench::fmt_int(direct.cycles()),
                   bench::fmt_int(im2col.cycles()),
                   bench::fmt_ratio(static_cast<double>(direct.cycles()) /
                                    static_cast<double>(im2col.cycles())),
                   bench::fmt_int(im2col.run.device_cycles_serial),
                   bench::fmt_ns(im2col.run.host_ns),
                   ok ? "bit-exact" : "MISMATCH"});
    report.row()
        .field("shape", std::string(shape))
        .field("impl", std::string("direct"))
        .field("double_buffer", dev.double_buffer())
        .field("verified", ok)
        .run_fields(direct.run);
    report.row()
        .field("shape", std::string(shape))
        .field("impl", std::string("im2col"))
        .field("double_buffer", dev.double_buffer())
        .field("verified", ok)
        .run_fields(im2col.run);
  }
  table.print();
  std::printf(
      "\nPaper reports a 3.2x speedup at the largest input (Section VI-A).\n");
  if (!json_path.empty()) report.write(json_path);
  if (!profile.empty()) bench::write_profile(dev, profile);
  return 0;
}
