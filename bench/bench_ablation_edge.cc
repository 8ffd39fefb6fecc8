// Ablation A6 (ours): the paper's other future-work direction --
// "evaluate the proposed approach in other architectures". Runs the
// Figure 7 comparisons on an Ascend-310-like edge configuration (2 AI
// Cores; "DaVinci edge chips also feature Im2Col instructions",
// Section VII). Edge devices run inference only, so the forward
// comparisons are the relevant ones; backward is included to show the
// conclusion is architecture-independent anyway.
#include <cstdio>

#include "harness.h"
#include "kernels/pooling.h"
#include "nets/cnn_tables.h"
#include "ref/pooling_ref.h"

using namespace davinci;

int main(int argc, char** argv) {
  flags::Parser cli("bench_ablation_edge");
  if (cli.parse(argc, argv) != flags::Status::kOk) return cli.report();
  bench::print_preamble(
      "Figure 7 comparisons on an Ascend-310-like edge device (2 cores)",
      "Ablation A6 (Section VIII: 'other architectures'; Section VII: "
      "edge chips)");
  Device edge(ArchConfig::ascend310());
  Device dc(ArchConfig::ascend910());

  bench::Table table("edge vs datacenter device",
                     {"input (HWC)", "experiment", "edge speedup",
                      "910 speedup", "edge fast (cycles)"});

  for (const auto& layer : nets::inception_v3_fig7_layers()) {
    const std::int64_t c1 = c1_of(layer.c);
    const Window2d w = layer.window;
    const TensorF16 in = bench::make_input(1, c1, layer.h, layer.w);
    char shape[48];
    std::snprintf(shape, sizeof(shape), "%lld,%lld,%lld",
                  static_cast<long long>(layer.h),
                  static_cast<long long>(layer.w),
                  static_cast<long long>(layer.c));

    {
      kernels::PoolOp op{.kind = kernels::PoolOpKind::kMaxFwd,
                         .window = w,
                         .fwd = akg::PoolImpl::kDirect};
      auto ed = kernels::run_pool(edge, op, {.in = &in});
      auto dd = kernels::run_pool(dc, op, {.in = &in});
      op.fwd = akg::PoolImpl::kIm2col;
      auto ei = kernels::run_pool(edge, op, {.in = &in});
      auto di = kernels::run_pool(dc, op, {.in = &in});
      table.add_row({shape, "forward",
                     bench::fmt_ratio(static_cast<double>(ed.cycles()) /
                                      static_cast<double>(ei.cycles())),
                     bench::fmt_ratio(static_cast<double>(dd.cycles()) /
                                      static_cast<double>(di.cycles())),
                     bench::fmt_int(ei.cycles())});
    }
    {
      const TensorF16 mask = ref::maxpool_argmax_mask(in, w);
      TensorF16 grad(Shape{1, c1, w.out_h(layer.h), w.out_w(layer.w), kC0});
      grad.fill_random_ints(3, 0, 5);
      kernels::PoolOp op{.kind = kernels::PoolOpKind::kMaxBwd,
                         .window = w,
                         .merge = kernels::MergeImpl::kVadd};
      const kernels::PoolInputs bwd_in{
          .mask = &mask, .grad = &grad, .ih = layer.h, .iw = layer.w};
      auto ev = kernels::run_pool(edge, op, bwd_in);
      auto dv = kernels::run_pool(dc, op, bwd_in);
      op.merge = kernels::MergeImpl::kCol2im;
      auto ec = kernels::run_pool(edge, op, bwd_in);
      auto dcc = kernels::run_pool(dc, op, bwd_in);
      table.add_row({shape, "backward",
                     bench::fmt_ratio(static_cast<double>(ev.cycles()) /
                                      static_cast<double>(ec.cycles())),
                     bench::fmt_ratio(static_cast<double>(dv.cycles()) /
                                      static_cast<double>(dcc.cycles())),
                     bench::fmt_int(ec.cycles())});
    }
  }
  table.print();
  std::printf(
      "\nReading: per-core schedules are identical, so the speedups carry\n"
      "over to the edge part unchanged; only absolute device time differs\n"
      "(2 cores instead of up to C1 of 32 working in parallel).\n");
  return 0;
}
