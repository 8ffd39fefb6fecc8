// Command-line driver: run any pooling configuration on the simulated
// device, verify it against the reference, and print cycles, the
// critical core's per-pipe breakdown and (optionally) the instruction
// trace.
//
//   davinci_pool_cli --op=maxpool --impl=im2col --h=71 --w=71 --c=192
//                    --k=3 --s=2 [--pad=1] [--trace] [--compare]
//                    [--no-double-buffer] [--profile=<out.json>]
//                    [--metrics=<out.json>]
//                    [--inject=<spec>] [--retries=N] [--seed=S]
//
//   --op       maxpool | maxpool_mask | maxpool_bwd | avgpool |
//              avgpool_bwd | minpool | global_avgpool
//   --impl     direct | im2col | expansion | xysplit   (forward ops)
//              vadd | col2im                           (backward ops)
//   --compare  also run the baseline implementation and print the speedup
//   --trace    print the first instructions executed on core 0
//   --no-double-buffer  run the legacy serial single-buffer schedule
//              (device cycles then equal the serial cycle count)
//   --profile  record the instruction timeline of every core and write it
//              as Chrome trace_event JSON, viewable in chrome://tracing or
//              https://ui.perfetto.dev (see docs/PROFILING.md); with
//              --compare the file contains both runs back to back, each
//              event tagged with its run's launch ordinal
//   --metrics  write the versioned cycle-attribution / roofline metrics
//              JSON (davinci.metrics schema, one entry per reported run;
//              render or diff it with davinci_prof -- see
//              docs/OBSERVABILITY.md)
//
// Fault injection (see docs/RESILIENCE.md for the full grammar):
//   --inject   comma-separated fault spec, e.g.
//              core_fail@2,bitflip:ub:1e-6 -- runs every kernel under
//              that resilience policy and prints a fault report. Output
//              verification by redundant execution is enabled
//              automatically when the plan contains silent-corruption
//              sites.
//   --retries  per-block retry allowance (default 3)
//   --seed     fault-stream seed (default 0); same spec + seed replays
//              the same faults
//
// Exit codes:
//   0  success (device output bit-exact against the reference)
//   2  usage error (unknown flag/op/impl, malformed --inject spec)
//   3  verification mismatch (device output differs from the reference)
//   4  execution error (unschedulable tiling, kernel failure, ...)
//   5  retry budget exhausted under fault injection (RetryExhausted)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

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
  std::string impl = "im2col";
  std::int64_t h = 35, w = 35, c = 288, k = 3, s = 2, pad = 0;
  std::string inject;
  std::string profile;
  std::string metrics;
  std::int64_t retries = 3;
  std::int64_t seed = 0;
  bool trace = false;
  bool compare = false;
  bool no_double_buffer = false;
};

bool parse_int(const char* arg, const char* name, std::int64_t* out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0) return false;
  *out = std::atoll(arg + n);
  return true;
}

bool parse_str(const char* arg, const char* name, std::string* out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0) return false;
  *out = arg + n;
  return true;
}

akg::PoolImpl parse_impl(const std::string& s) {
  if (s == "direct") return akg::PoolImpl::kDirect;
  if (s == "im2col") return akg::PoolImpl::kIm2col;
  if (s == "expansion") return akg::PoolImpl::kExpansion;
  if (s == "xysplit") return akg::PoolImpl::kXYSplit;
  std::fprintf(stderr, "unknown --impl=%s\n", s.c_str());
  std::exit(2);
}

void report(const char* what, const Device::RunResult& run, bool show_faults,
            const ArchConfig& arch) {
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
  const Roofline roof = compute_roofline(run.aggregate.traffic, run.profile,
                                         arch, run.device_cycles,
                                         run.cores_used);
  std::printf("  roofline: %s (arith intensity %.3g vs balance %.3g; "
              "%.3g of %lld GM bytes/cycle/core)\n",
              roof.klass(), roof.arithmetic_intensity, roof.machine_balance,
              roof.achieved_gm_bytes_per_cycle,
              static_cast<long long>(arch.peak_mte_bytes_per_cycle));
  std::printf("  cores used: %d\n", run.cores_used);
  if (show_faults) {
    std::printf("  fault report: %s\n", run.faults.summary().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (parse_str(a, "--op=", &opt.op) || parse_str(a, "--impl=", &opt.impl) ||
        parse_int(a, "--h=", &opt.h) || parse_int(a, "--w=", &opt.w) ||
        parse_int(a, "--c=", &opt.c) || parse_int(a, "--k=", &opt.k) ||
        parse_int(a, "--s=", &opt.s) || parse_int(a, "--pad=", &opt.pad) ||
        parse_str(a, "--inject=", &opt.inject) ||
        parse_str(a, "--profile=", &opt.profile) ||
        parse_str(a, "--metrics=", &opt.metrics) ||
        parse_int(a, "--retries=", &opt.retries) ||
        parse_int(a, "--seed=", &opt.seed)) {
      continue;
    }
    if (std::strcmp(a, "--trace") == 0) {
      opt.trace = true;
    } else if (std::strcmp(a, "--compare") == 0) {
      opt.compare = true;
    } else if (std::strcmp(a, "--no-double-buffer") == 0) {
      opt.no_double_buffer = true;
    } else {
      std::fprintf(stderr, "unknown argument %s (see header comment)\n", a);
      return 2;
    }
  }

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
    ResilienceOptions ropts;
    try {
      ropts.plan = FaultPlan::parse(
          opt.inject, static_cast<std::uint64_t>(opt.seed));
    } catch (const Error& e) {
      std::fprintf(stderr, "bad --inject spec: %s\n", e.what());
      return 2;
    }
    if (opt.retries < 0) {
      std::fprintf(stderr, "--retries must be >= 0\n");
      return 2;
    }
    ropts.max_retries = static_cast<int>(opt.retries);
    ropts.verify = ropts.plan.has_silent_sites();
    dev.set_resilience(ropts);
    std::printf("fault injection: %s  (retries=%lld, verify=%s)\n",
                ropts.plan.to_string().c_str(),
                static_cast<long long>(opt.retries),
                ropts.verify ? "on" : "off");
  }

  std::printf("op=%s input=%lldx%lldx%lld %s\n", opt.op.c_str(),
              static_cast<long long>(opt.h), static_cast<long long>(opt.w),
              static_cast<long long>(opt.c), window.to_string().c_str());

  // Every reported run also lands in the metrics registry when
  // --metrics=<path> was given (written after verification below).
  MetricsRegistry metrics;
  auto note = [&](const char* what, const Device::RunResult& run) {
    report(what, run, injecting, dev.arch());
    if (!opt.metrics.empty()) metrics.add(what, run, dev.arch());
  };

  bool ok = true;
  try {
    if (opt.op == "maxpool" || opt.op == "avgpool" || opt.op == "minpool") {
      const akg::PoolImpl impl = parse_impl(opt.impl);
      auto run_op = [&](akg::PoolImpl i) {
        const kernels::PoolOpKind kind =
            opt.op == "avgpool"
                ? kernels::PoolOpKind::kAvgFwd
                : (opt.op == "minpool" ? kernels::PoolOpKind::kMinFwd
                                       : kernels::PoolOpKind::kMaxFwd);
        return kernels::run_pool(
            dev, {.kind = kind, .window = window, .fwd = i}, {.in = &in});
      };
      auto r = run_op(impl);
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
                                  .fwd = parse_impl(opt.impl)},
                                 {.in = &in});
      const TensorF16 want = ref::maxpool_fwd(in, window);
      for (std::int64_t i = 0; i < want.size(); ++i) {
        ok &= r.out.flat(i) == want.flat(i);
      }
      note(opt.impl.c_str(), r.run);
    } else if (opt.op == "maxpool_bwd" || opt.op == "avgpool_bwd") {
      const kernels::MergeImpl merge = opt.impl == "vadd"
                                           ? kernels::MergeImpl::kVadd
                                           : kernels::MergeImpl::kCol2im;
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
    } else if (opt.op == "global_avgpool") {
      auto r = kernels::run_pool(
          dev, {.kind = kernels::PoolOpKind::kGlobalAvg}, {.in = &in});
      const TensorF16 want = ref::global_avgpool(in);
      for (std::int64_t i = 0; i < want.size(); ++i) {
        ok &= r.out.flat(i) == want.flat(i);
      }
      note("global", r.run);
    } else {
      std::fprintf(stderr, "unknown --op=%s\n", opt.op.c_str());
      return 2;
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
