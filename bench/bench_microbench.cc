// Host-side microbenchmarks (google-benchmark): wall-clock performance of
// the *simulator itself* on the primitives the reproduction exercises.
// These are not paper results -- they exist so regressions in simulator
// throughput (which bound how large an experiment is practical) are
// visible.
#include <benchmark/benchmark.h>

#include <string>
#include <string_view>
#include <vector>

#include "arch/arch_config.h"
#include "arch/cost_model.h"
#include "kernels/pooling.h"
#include "sim/ai_core.h"
#include "sim/device.h"
#include "sim/scu.h"
#include "tensor/fractal.h"

namespace davinci {
namespace {

void BM_VectorUnitFlatMax(benchmark::State& state) {
  AiCore core(0, ArchConfig::ascend910(), CostModel::calibrated());
  const std::int64_t n = state.range(0);
  auto a = core.ub().alloc<Float16>(n);
  auto b = core.ub().alloc<Float16>(n);
  auto d = core.ub().alloc<Float16>(n);
  core.vdup_flat(a, Float16(1.0f), n);
  core.vdup_flat(b, Float16(2.0f), n);
  for (auto _ : state) {
    core.vbin_flat(VecOp::kMax, d, a, b, n);
    benchmark::DoNotOptimize(d.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
// Three spans of the largest size must fit the 256 KiB Unified Buffer.
BENCHMARK(BM_VectorUnitFlatMax)->Arg(1024)->Arg(16384)->Arg(40960);

void BM_Im2colLoad(benchmark::State& state) {
  AiCore core(0, ArchConfig::ascend910(), CostModel::calibrated());
  const std::int64_t h = state.range(0);
  Im2colArgs args;
  args.window = Window2d::pool(3, 2);
  args.ih = h;
  args.iw = h;
  auto src = core.l1().alloc<Float16>(args.input_elems());
  auto dst = core.ub().alloc<Float16>(args.output_elems());
  for (auto _ : state) {
    core.scu().im2col_load(dst, src, args);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(state.iterations() * args.output_elems());
}
BENCHMARK(BM_Im2colLoad)->Arg(17)->Arg(33);

void BM_Col2im(benchmark::State& state) {
  AiCore core(0, ArchConfig::ascend910(), CostModel::calibrated());
  const std::int64_t h = state.range(0);
  Im2colArgs args;
  args.window = Window2d::pool(3, 2);
  args.ih = h;
  args.iw = h;
  auto src = core.ub().alloc<Float16>(args.output_elems());
  auto out = core.ub().alloc<Float16>(args.input_elems());
  core.vdup_flat(out, Float16(), args.input_elems());
  for (auto _ : state) {
    core.scu().col2im(out, src, args);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * args.output_elems());
}
BENCHMARK(BM_Col2im)->Arg(17)->Arg(33);

void BM_MaxpoolForwardIm2col(benchmark::State& state) {
  Device dev;
  const std::int64_t h = state.range(0);
  TensorF16 in(Shape{1, 1, h, h, kC0});
  in.fill_random_ints(1);
  const Window2d w = Window2d::pool(3, 2);
  const kernels::PoolOp op{.kind = kernels::PoolOpKind::kMaxFwd,
                           .window = w,
                           .fwd = akg::PoolImpl::kIm2col};
  for (auto _ : state) {
    auto r = kernels::run_pool(dev, op, {.in = &in});
    benchmark::DoNotOptimize(r.out.data());
  }
  state.SetItemsProcessed(state.iterations() * in.size());
}
BENCHMARK(BM_MaxpoolForwardIm2col)->Arg(17)->Arg(35)->Arg(71);

void BM_MaxpoolForwardDirect(benchmark::State& state) {
  Device dev;
  const std::int64_t h = state.range(0);
  TensorF16 in(Shape{1, 1, h, h, kC0});
  in.fill_random_ints(1);
  const Window2d w = Window2d::pool(3, 2);
  const kernels::PoolOp op{.kind = kernels::PoolOpKind::kMaxFwd,
                           .window = w,
                           .fwd = akg::PoolImpl::kDirect};
  for (auto _ : state) {
    auto r = kernels::run_pool(dev, op, {.in = &in});
    benchmark::DoNotOptimize(r.out.data());
  }
  state.SetItemsProcessed(state.iterations() * in.size());
}
BENCHMARK(BM_MaxpoolForwardDirect)->Arg(17)->Arg(35)->Arg(71);

void BM_DeviceRunDispatch(benchmark::State& state) {
  Device dev;
  for (auto _ : state) {
    auto r = dev.run(32, [](AiCore& core, std::int64_t) {
      auto s = core.ub().alloc<Float16>(128);
      core.vdup_flat(s, Float16(), 128);
    });
    benchmark::DoNotOptimize(r.device_cycles);
  }
}
BENCHMARK(BM_DeviceRunDispatch);

}  // namespace
}  // namespace davinci

// Custom main so the harness-wide --json=<path> flag works here too: it
// maps onto google-benchmark's own JSON reporter (--benchmark_out), which
// already records wall-clock per benchmark -- the host-side equivalent of
// the cycle rows the figure benches emit. google-benchmark's own flag
// table handles the rest; a flag it does not know is a usage error (2).
int main(int argc, char** argv) {
  std::vector<std::string> args_storage;
  std::vector<char*> args;
  args_storage.reserve(static_cast<std::size_t>(argc) + 2);
  for (int i = 0; i < argc; ++i) {
    static constexpr char kFlag[] = "--json=";
    if (std::string_view(argv[i]).starts_with(kFlag)) {
      args_storage.push_back(std::string("--benchmark_out=") +
                             (argv[i] + sizeof(kFlag) - 1));
      args_storage.push_back("--benchmark_out_format=json");
    } else {
      args_storage.push_back(argv[i]);
    }
  }
  for (auto& s : args_storage) args.push_back(s.data());
  int fake_argc = static_cast<int>(args.size());
  benchmark::Initialize(&fake_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(fake_argc, args.data())) return 2;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
