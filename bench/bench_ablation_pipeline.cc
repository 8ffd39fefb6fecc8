// Ablation A5 (ours): timing-model robustness. Since the pipe-overlap
// scheduler landed, `device_cycles` is a real overlapped makespan on the
// per-unit timelines (Vector+Scalar, MTE, SCU, Cube) and
// `device_cycles_serial` is the same instruction stream charged in order.
// This bench reports the paper's key comparisons under both models and
// shows the winners are the same -- i.e. the reproduction's conclusions
// do not rest on the timing model chosen. It also writes the
// machine-readable perf trajectory (BENCH_pipeline.json unless --json
// names another path) so CI can track overlapped vs serial cycles and
// host wall-clock across PRs.
#include <cstdio>
#include <string>

#include "harness.h"
#include "kernels/pooling.h"
#include "nets/cnn_tables.h"
#include "ref/pooling_ref.h"
#include "sim/metrics_registry.h"

using namespace davinci;

int main(int argc, char** argv) {
  std::string json_path = "BENCH_pipeline.json", metrics_path;
  bool no_double_buffer = false;
  flags::Parser cli("bench_ablation_pipeline");
  cli.flag("json", &json_path, "write the rows as bench JSON here")
      .flag("no-double-buffer", &no_double_buffer, "single-buffer schedule")
      .flag("metrics", &metrics_path, "write the metrics JSON here");
  if (cli.parse(argc, argv) != flags::Status::kOk) return cli.report();
  bench::print_preamble(
      "Overlapped vs serial device time for the key comparisons",
      "Ablation A5 (this reproduction; see DESIGN.md section 5)");
  Device dev;
  dev.set_double_buffer(!no_double_buffer);
  bench::JsonReport report("ablation_pipeline");
  MetricsRegistry metrics;

  bench::Table table(
      "speedups under both timing models",
      {"experiment", "overlap base", "overlap fast", "overlap speedup",
       "serial speedup", "winner stable"});

  auto add = [&](const char* name, const Device::RunResult& base,
                 const Device::RunResult& fast) {
    const double s = static_cast<double>(base.device_cycles) /
                     static_cast<double>(fast.device_cycles);
    const double p = static_cast<double>(base.device_cycles_serial) /
                     static_cast<double>(fast.device_cycles_serial);
    table.add_row({name, bench::fmt_int(base.device_cycles),
                   bench::fmt_int(fast.device_cycles), bench::fmt_ratio(s),
                   bench::fmt_ratio(p),
                   (s > 1.0) == (p > 1.0) ? "yes" : "NO"});
    report.row()
        .field("experiment", std::string(name))
        .field("variant", std::string("base"))
        .run_fields(base)
        .traffic_fields(base, dev.arch());
    report.row()
        .field("experiment", std::string(name))
        .field("variant", std::string("fast"))
        .run_fields(fast)
        .traffic_fields(fast, dev.arch());
    if (!metrics_path.empty()) {
      metrics.add(std::string(name) + " [base]", base, dev.arch());
      metrics.add(std::string(name) + " [fast]", fast, dev.arch());
    }
  };

  const auto max_fwd = [&dev](const TensorF16& in, const Window2d& w,
                              akg::PoolImpl impl) {
    return kernels::run_pool(
        dev, {.kind = kernels::PoolOpKind::kMaxFwd, .window = w, .fwd = impl},
        {.in = &in});
  };
  {  // Figure 7a, middle input.
    const Window2d w = Window2d::pool(3, 2);
    const TensorF16 in = bench::make_input(1, 12, 71, 71);
    auto d = max_fwd(in, w, akg::PoolImpl::kDirect);
    auto i = max_fwd(in, w, akg::PoolImpl::kIm2col);
    add("fwd 71x71x192 (fig 7a)", d.run, i.run);
  }
  {  // Figure 7c, middle input.
    const Window2d w = Window2d::pool(3, 2);
    const TensorF16 in = bench::make_input(1, 12, 71, 71);
    const TensorF16 mask = ref::maxpool_argmax_mask(in, w);
    TensorF16 grad(Shape{1, 12, 35, 35, kC0});
    grad.fill_random_ints(5, 0, 5);
    kernels::PoolOp bop{.kind = kernels::PoolOpKind::kMaxBwd,
                        .window = w,
                        .merge = kernels::MergeImpl::kVadd};
    const kernels::PoolInputs bwd_in{
        .mask = &mask, .grad = &grad, .ih = 71, .iw = 71};
    auto v = kernels::run_pool(dev, bop, bwd_in);
    bop.merge = kernels::MergeImpl::kCol2im;
    auto c = kernels::run_pool(dev, bop, bwd_in);
    add("bwd 71x71x192 (fig 7c)", v.run, c.run);
  }
  {  // Figure 8b point: im2col must beat direct at stride 2.
    const Window2d w = Window2d::pool(3, 2);
    const TensorF16 in = bench::make_input(1, 1, 33, 33);
    auto d = max_fwd(in, w, akg::PoolImpl::kDirect);
    auto i = max_fwd(in, w, akg::PoolImpl::kIm2col);
    add("fwd 33x33 s=2 (fig 8b)", d.run, i.run);
  }
  {  // Figure 8a crossover: direct must beat im2col at stride 1.
    const Window2d w = Window2d::pool(3, 1);
    const TensorF16 in = bench::make_input(1, 1, 27, 27);
    auto i = max_fwd(in, w, akg::PoolImpl::kIm2col);
    auto d = max_fwd(in, w, akg::PoolImpl::kDirect);
    add("fwd 27x27 s=1 (fig 8a, direct wins)", i.run, d.run);
  }

  table.print();
  std::printf(
      "\nReading: under pipe overlap the accelerated kernels become\n"
      "MTE/SCU-bound and the baselines stay Vector-bound, so every\n"
      "ordering survives; the serial model is the conservative choice.\n");
  report.write(json_path);
  if (!metrics_path.empty()) metrics.write(metrics_path);
  return 0;
}
