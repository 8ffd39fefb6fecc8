// Figure 7c: MaxPool backward, vadd-merge baseline vs Col2Im-based merge,
// on the InceptionV3 inputs of Figure 7. The backward operator is where
// the paper measures its largest speedup (5.8x) because the merge step is
// exactly the Col2im operation.
#include <cstdio>

#include "harness.h"
#include "kernels/pooling.h"
#include "nets/cnn_tables.h"
#include "ref/pooling_ref.h"

using namespace davinci;

int main(int argc, char** argv) {
  std::string json_path;
  bool no_double_buffer = false;
  flags::Parser cli("bench_fig7c_maxpool_backward");
  cli.flag("json", &json_path, "write the rows as bench JSON here")
      .flag("no-double-buffer", &no_double_buffer, "single-buffer schedule");
  if (cli.parse(argc, argv) != flags::Status::kOk) return cli.report();
  bench::print_preamble("MaxPool backward: vadd merge vs Col2Im merge",
                        "Figure 7c (IPDPSW 2021)");
  Device dev;
  dev.set_double_buffer(!no_double_buffer);
  bench::JsonReport report("fig7c_maxpool_backward");
  bench::Table table("Figure 7c -- cycle count by input size",
                     {"input (HWC)", "Maxpool backward", "with Col2im",
                      "speedup", "verified"});
  for (const auto& layer : nets::inception_v3_fig7_layers()) {
    const std::int64_t c1 = c1_of(layer.c);
    const Window2d w = layer.window;
    const TensorF16 in = bench::make_input(1, c1, layer.h, layer.w);
    const TensorF16 mask = ref::maxpool_argmax_mask(in, w);
    TensorF16 grad(Shape{1, c1, w.out_h(layer.h), w.out_w(layer.w), kC0});
    grad.fill_random_ints(7, 0, 5);

    kernels::PoolOp op{.kind = kernels::PoolOpKind::kMaxBwd,
                       .window = w,
                       .merge = kernels::MergeImpl::kVadd};
    const kernels::PoolInputs bwd_in{
        .mask = &mask, .grad = &grad, .ih = layer.h, .iw = layer.w};
    auto vadd = kernels::run_pool(dev, op, bwd_in);
    op.merge = kernels::MergeImpl::kCol2im;
    auto col2im = kernels::run_pool(dev, op, bwd_in);
    const TensorF16 want = ref::maxpool_bwd(mask, grad, w, layer.h, layer.w);
    bool ok = true;
    for (std::int64_t i = 0; i < want.size(); ++i) {
      ok &= vadd.grad_in.flat(i) == want.flat(i);
      ok &= col2im.grad_in.flat(i) == want.flat(i);
    }
    char shape[48];
    std::snprintf(shape, sizeof(shape), "%lld,%lld,%lld",
                  static_cast<long long>(layer.h),
                  static_cast<long long>(layer.w),
                  static_cast<long long>(layer.c));
    table.add_row({shape, bench::fmt_int(vadd.cycles()),
                   bench::fmt_int(col2im.cycles()),
                   bench::fmt_ratio(static_cast<double>(vadd.cycles()) /
                                    static_cast<double>(col2im.cycles())),
                   ok ? "bit-exact" : "MISMATCH"});
    report.row()
        .field("shape", std::string(shape))
        .field("impl", std::string("vadd"))
        .field("double_buffer", dev.double_buffer())
        .field("verified", ok)
        .run_fields(vadd.run);
    report.row()
        .field("shape", std::string(shape))
        .field("impl", std::string("col2im"))
        .field("double_buffer", dev.double_buffer())
        .field("verified", ok)
        .run_fields(col2im.run);
  }
  table.print();
  std::printf(
      "\nPaper reports a 5.8x speedup at the largest input (Section VI-A).\n");
  if (!json_path.empty()) report.write(json_path);
  return 0;
}
