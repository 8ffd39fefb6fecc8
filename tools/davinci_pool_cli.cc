// Command-line driver: run any pooling configuration on the simulated
// device, verify it against the reference, and print cycles, the
// critical core's per-pipe breakdown, its bottleneck pipe and
// (optionally) the instruction trace.
//
//   davinci_pool_cli --op=maxpool --impl=im2col --h=71 --w=71 --c=192
//                    --k=3 --s=2 [--compare] [--inject=<spec>] ...
//
// --help prints the declared flags with their defaults. --impl names a
// lowering of the op's direction: direct, im2col, expansion or xysplit
// for a forward op, vadd or col2im for a backward op (maxpool_bwd,
// avgpool_bwd). docs/RESILIENCE.md gives the --inject grammar,
// docs/PROFILING.md the --profile trace and docs/OBSERVABILITY.md the
// --metrics file.
//
// Exit codes:
//   0  success (device output bit-exact against the reference)
//   2  usage error (unknown or malformed flag, an --impl that is not a
//      lowering of the op, a malformed --inject spec, negative retries)
//   3  verification mismatch (device output differs from the reference)
//   4  execution error (unschedulable tiling, kernel failure, ...)
//   5  retry budget exhausted under fault injection (RetryExhausted)
#include <cstdio>
#include <string>

#include "common/flags.h"
#include "kernels/pooling.h"
#include "ref/pooling_ref.h"
#include "sim/fault.h"
#include "sim/metrics.h"
#include "sim/metrics_registry.h"
#include "sim/trace_export.h"
#include "tensor/fractal.h"

using namespace davinci;

namespace {

struct Options {
  std::string op = "maxpool";
  std::string impl;  // none: im2col forward, col2im backward
  std::int64_t h = 35, w = 35, c = 288, k = 3, s = 2, pad = 0;
  std::string inject, profile, metrics;
  std::uint64_t seed = 0;
  bool trace = false, compare = false, no_double_buffer = false;
};

void report(const char* what, const Device::RunResult& run, bool show_faults) {
  std::printf("%-14s %10lld cycles  (serial %lld)\n", what,
              static_cast<long long>(run.device_cycles),
              static_cast<long long>(run.device_cycles_serial));
  const DeviceAttribution& attr = run.attribution;
  if (attr.critical_core >= 0) {
    const CoreAttribution& crit =
        attr.cores[static_cast<std::size_t>(attr.critical_core)];
    std::printf("  critical core %d by pipe (busy/wait/flag/idle):",
                crit.core);
    for (int p = 0; p < PipeScheduler::kNumPipes; ++p) {
      const PipeBuckets& b = crit.pipes[p];
      std::printf(" %s=%lld/%lld/%lld/%lld", to_string(static_cast<Pipe>(p)),
                  static_cast<long long>(b.busy),
                  static_cast<long long>(b.wait),
                  static_cast<long long>(b.flag),
                  static_cast<long long>(b.idle));
    }
    std::printf("\n");
  }
  std::printf("  occupancy: %s\n", run.profile.summary().c_str());
  std::printf("  bottleneck: %s\n", attr.bottleneck());
  std::printf("  cores used: %d\n", run.cores_used);
  if (show_faults) {
    std::printf("  fault report: %s\n", run.faults.summary().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  ResilienceOptions ropts;
  flags::Parser cli("davinci_pool_cli");
  cli.flag("op", &opt.op, "pooling operator",
           {"maxpool", "maxpool_mask", "maxpool_bwd", "avgpool", "avgpool_bwd",
            "minpool", "global_avgpool"})
      .flag("impl", &opt.impl,
            "lowering (none = im2col forward, col2im backward)",
            {"direct", "im2col", "expansion", "xysplit", "vadd", "col2im"})
      .flag("h", &opt.h, "input height")
      .flag("w", &opt.w, "input width")
      .flag("c", &opt.c, "input channels")
      .flag("k", &opt.k, "square window size")
      .flag("s", &opt.s, "stride")
      .flag("pad", &opt.pad, "padding on every side")
      .flag("compare", &opt.compare, "also run the baseline, print speedup")
      .flag("trace", &opt.trace, "print core 0's first instructions")
      .flag("no-double-buffer", &opt.no_double_buffer, "single-buffer schedule")
      .flag("profile", &opt.profile, "write the Chrome trace JSON here")
      .flag("metrics", &opt.metrics, "write the metrics JSON here")
      .flag("inject", &opt.inject, "fault spec every kernel runs under")
      .flag("retries", &ropts.max_retries, "per-block retry allowance")
      .flag("seed", &opt.seed, "fault-stream seed");
  if (cli.parse(argc, argv) != flags::Status::kOk) return cli.report();
  // --impl names a lowering of the op's direction.
  const bool backward = opt.op == "maxpool_bwd" || opt.op == "avgpool_bwd";
  if (opt.impl.empty()) opt.impl = backward ? "col2im" : "im2col";
  if ((opt.impl == "vadd" || opt.impl == "col2im") != backward) {
    return cli.fail("--impl=" + opt.impl + " is not a lowering of --op=" +
                    opt.op);
  }
  const akg::PoolImpl fwd =
      opt.impl == "direct"      ? akg::PoolImpl::kDirect
      : opt.impl == "expansion" ? akg::PoolImpl::kExpansion
      : opt.impl == "xysplit"   ? akg::PoolImpl::kXYSplit
                                : akg::PoolImpl::kIm2col;
  const kernels::MergeImpl merge = opt.impl == "vadd"
                                       ? kernels::MergeImpl::kVadd
                                       : kernels::MergeImpl::kCol2im;

  Window2d window = Window2d::pool(opt.k, opt.s);
  window.pt = window.pb = window.pl = window.pr = opt.pad;
  const std::int64_t c1 = c1_of(opt.c);
  TensorF16 in(Shape{1, c1, opt.h, opt.w, kC0});
  in.fill_random_ints(1);

  Device dev;
  dev.set_double_buffer(!opt.no_double_buffer);
  if (opt.trace) dev.core(0).trace().enable();
  if (!opt.profile.empty()) {
    // The Chrome-trace export needs every core's instruction stream.
    for (int c = 0; c < dev.num_cores(); ++c) dev.core(c).trace().enable();
  }

  const bool injecting = !opt.inject.empty();
  if (injecting) {
    // The fault plan and the device own their settings' rules.
    try {
      ropts.plan = FaultPlan::parse(opt.inject, opt.seed);
      ropts.verify = ropts.plan.has_silent_sites();
      dev.set_resilience(ropts);
    } catch (const Error& e) {
      return cli.fail(std::string("bad --inject or --retries: ") + e.what());
    }
    std::printf("fault injection: %s  (retries=%d, verify=%s)\n",
                ropts.plan.to_string().c_str(), ropts.max_retries,
                ropts.verify ? "on" : "off");
  }

  std::printf("op=%s input=%lldx%lldx%lld %s\n", opt.op.c_str(),
              static_cast<long long>(opt.h), static_cast<long long>(opt.w),
              static_cast<long long>(opt.c), window.to_string().c_str());

  // Every reported run also lands in the metrics registry when
  // --metrics=<path> was given (written after verification below).
  MetricsRegistry metrics;
  auto note = [&](const char* what, const Device::RunResult& run) {
    report(what, run, injecting);
    if (!opt.metrics.empty()) metrics.add(what, run);
  };

  bool ok = true;
  try {
    if (opt.op == "maxpool" || opt.op == "avgpool" || opt.op == "minpool") {
      auto run_op = [&](akg::PoolImpl i) {
        const kernels::PoolOpKind kind =
            opt.op == "avgpool"
                ? kernels::PoolOpKind::kAvgFwd
                : (opt.op == "minpool" ? kernels::PoolOpKind::kMinFwd
                                       : kernels::PoolOpKind::kMaxFwd);
        return kernels::run_pool(
            dev, {.kind = kind, .window = window, .fwd = i}, {.in = &in});
      };
      auto r = run_op(fwd);
      const TensorF16 want = opt.op == "avgpool"
                                 ? ref::avgpool_fwd(in, window)
                                 : (opt.op == "minpool"
                                        ? ref::minpool_fwd(in, window)
                                        : ref::maxpool_fwd(in, window));
      for (std::int64_t i = 0; i < want.size(); ++i) {
        ok &= r.out.flat(i) == want.flat(i);
      }
      note(opt.impl.c_str(), r.run);
      if (opt.compare) {
        auto base = run_op(akg::PoolImpl::kDirect);
        note("direct", base.run);
        std::printf("speedup: %.2fx\n",
                    static_cast<double>(base.cycles()) /
                        static_cast<double>(r.cycles()));
      }
    } else if (opt.op == "maxpool_mask") {
      auto r = kernels::run_pool(dev,
                                 {.kind = kernels::PoolOpKind::kMaxMaskFwd,
                                  .window = window,
                                  .fwd = fwd},
                                 {.in = &in});
      const TensorF16 want = ref::maxpool_fwd(in, window);
      for (std::int64_t i = 0; i < want.size(); ++i) {
        ok &= r.out.flat(i) == want.flat(i);
      }
      note(opt.impl.c_str(), r.run);
    } else if (backward) {
      TensorF16 grad(
          Shape{1, c1, window.out_h(opt.h), window.out_w(opt.w), kC0});
      grad.fill_random_ints(2, 0, 5);
      if (opt.op == "maxpool_bwd") {
        const TensorF16 mask = ref::maxpool_argmax_mask(in, window);
        const kernels::PoolInputs bwd_in{
            .mask = &mask, .grad = &grad, .ih = opt.h, .iw = opt.w};
        auto r = kernels::run_pool(dev,
                                   {.kind = kernels::PoolOpKind::kMaxBwd,
                                    .window = window,
                                    .merge = merge},
                                   bwd_in);
        const TensorF16 want =
            ref::maxpool_bwd(mask, grad, window, opt.h, opt.w);
        for (std::int64_t i = 0; i < want.size(); ++i) {
          ok &= r.grad_in.flat(i) == want.flat(i);
        }
        note(kernels::to_string(merge), r.run);
        if (opt.compare) {
          auto base = kernels::run_pool(
              dev,
              {.kind = kernels::PoolOpKind::kMaxBwd,
               .window = window,
               .merge = kernels::MergeImpl::kVadd},
              bwd_in);
          note("vadd", base.run);
          std::printf("speedup: %.2fx\n",
                      static_cast<double>(base.cycles()) /
                          static_cast<double>(r.cycles()));
        }
      } else {
        auto r = kernels::run_pool(
            dev,
            {.kind = kernels::PoolOpKind::kAvgBwd,
             .window = window,
             .merge = merge},
            {.grad = &grad, .ih = opt.h, .iw = opt.w});
        const TensorF16 want = ref::avgpool_bwd(grad, window, opt.h, opt.w);
        for (std::int64_t i = 0; i < want.size(); ++i) {
          ok &= r.grad_in.flat(i) == want.flat(i);
        }
        note(kernels::to_string(merge), r.run);
      }
    } else {
      auto r = kernels::run_pool(
          dev, {.kind = kernels::PoolOpKind::kGlobalAvg}, {.in = &in});
      const TensorF16 want = ref::global_avgpool(in);
      for (std::int64_t i = 0; i < want.size(); ++i) {
        ok &= r.out.flat(i) == want.flat(i);
      }
      note("global", r.run);
    }
  } catch (const RetryExhausted& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 5;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 4;
  }

  std::printf("verification: %s\n", ok ? "bit-exact" : "MISMATCH");
  if (!opt.metrics.empty()) {
    try {
      metrics.write(opt.metrics);
    } catch (const Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 4;
    }
  }
  if (!opt.profile.empty()) {
    try {
      write_chrome_trace(opt.profile, dev);
    } catch (const Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 4;
    }
    std::printf("profile: wrote Chrome trace to %s (open in chrome://tracing "
                "or ui.perfetto.dev)\n", opt.profile.c_str());
  }
  if (opt.trace) {
    std::printf("\ncore 0 instruction trace (first 48):\n%s",
                dev.core(0).trace().to_string(48).c_str());
  }
  return ok ? 0 : 3;
}
