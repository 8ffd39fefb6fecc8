// Figure 7b: MaxPool forward *with Argmax-mask production* (the extra
// output training needs), standard vs Im2col-based, on the InceptionV3
// inputs of Figure 7.
#include <cstdio>

#include "harness.h"
#include "kernels/pooling.h"
#include "nets/cnn_tables.h"
#include "ref/pooling_ref.h"

using namespace davinci;

int main(int argc, char** argv) {
  std::string json_path;
  bool no_double_buffer = false;
  flags::Parser cli("bench_fig7b_maxpool_mask");
  cli.flag("json", &json_path, "write the rows as bench JSON here")
      .flag("no-double-buffer", &no_double_buffer, "single-buffer schedule");
  if (cli.parse(argc, argv) != flags::Status::kOk) return cli.report();
  bench::print_preamble(
      "MaxPool forward + Argmax mask: standard vs Im2col-based",
      "Figure 7b (IPDPSW 2021)");
  Device dev;
  dev.set_double_buffer(!no_double_buffer);
  bench::JsonReport report("fig7b_maxpool_mask");
  bench::Table table("Figure 7b -- cycle count by input size",
                     {"input (HWC)", "Maxpool+mask", "Im2col+mask", "speedup",
                      "verified"});
  for (const auto& layer : nets::inception_v3_fig7_layers()) {
    const std::int64_t c1 = c1_of(layer.c);
    const TensorF16 in = bench::make_input(1, c1, layer.h, layer.w);
    kernels::PoolOp op{.kind = kernels::PoolOpKind::kMaxMaskFwd,
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
    // Masks from the two implementations must agree on valid patches.
    const std::int64_t valid = layer.window.out_h(layer.h) *
                               layer.window.out_w(layer.w);
    const std::int64_t ppg = direct.mask.shape()[4];
    for (std::int64_t s = 0; s < c1 * 9; ++s) {
      for (std::int64_t p = 0; p < valid; ++p) {
        for (std::int64_t c = 0; c < kC0; ++c) {
          ok &= direct.mask.flat((s * ppg + p) * kC0 + c) ==
                im2col.mask.flat((s * ppg + p) * kC0 + c);
        }
      }
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
                   ok ? "bit-exact" : "MISMATCH"});
    report.row()
        .field("shape", std::string(shape))
        .field("impl", std::string("direct"))
        .field("double_buffer", dev.double_buffer())
        .field("verified", ok)
        .run_fields(direct.run)
        .traffic_fields(direct.run, dev.arch());
    report.row()
        .field("shape", std::string(shape))
        .field("impl", std::string("im2col"))
        .field("double_buffer", dev.double_buffer())
        .field("verified", ok)
        .run_fields(im2col.run)
        .traffic_fields(im2col.run, dev.arch());
  }
  table.print();
  std::printf(
      "\nPaper reports a 5x speedup at the largest input (Section VI-A).\n");
  if (!json_path.empty()) report.write(json_path);
  return 0;
}
