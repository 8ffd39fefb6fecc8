#include "nets/pipeline.h"

#include <cstdio>
#include <cstring>

#include "common/check.h"
#include "kernels/conv2d.h"
#include "sim/metrics_registry.h"
#include "ref/conv_ref.h"
#include "ref/pooling_ref.h"
#include "tensor/fractal.h"

namespace davinci::nets {

Pipeline& Pipeline::conv(TensorF32 weights, const Window2d& window,
                         std::string name) {
  DV_CHECK_EQ(weights.shape().rank(), 4) << "(Cout, C, Kh, Kw)";
  DV_CHECK_EQ(weights.shape()[2], window.kh);
  DV_CHECK_EQ(weights.shape()[3], window.kw);
  layers_.push_back(
      Layer{Kind::kConv, std::move(name), window, std::move(weights)});
  return *this;
}

Pipeline& Pipeline::maxpool(const Window2d& window, std::string name) {
  layers_.push_back(Layer{Kind::kMaxPool, std::move(name), window, {}, {}});
  return *this;
}

Pipeline& Pipeline::avgpool(const Window2d& window, std::string name) {
  layers_.push_back(Layer{Kind::kAvgPool, std::move(name), window, {}, {}});
  return *this;
}

Pipeline& Pipeline::global_avgpool(std::string name) {
  layers_.push_back(Layer{Kind::kGlobalAvg, std::move(name), {}, {}, {}});
  return *this;
}

Pipeline& Pipeline::maxpool(const kernels::PoolOp& op, std::string name) {
  DV_CHECK(op.kind == kernels::PoolOpKind::kMaxFwd)
      << "maxpool override must be a kMaxFwd descriptor, got "
      << op.to_string();
  layers_.push_back(
      Layer{Kind::kMaxPool, std::move(name), op.window, {}, op});
  return *this;
}

Pipeline& Pipeline::avgpool(const kernels::PoolOp& op, std::string name) {
  DV_CHECK(op.kind == kernels::PoolOpKind::kAvgFwd)
      << "avgpool override must be a kAvgFwd descriptor, got "
      << op.to_string();
  layers_.push_back(
      Layer{Kind::kAvgPool, std::move(name), op.window, {}, op});
  return *this;
}

Pipeline::Result Pipeline::run(Device& dev, const TensorF16& input,
                               PoolingStack stack) const {
  DV_CHECK_EQ(input.shape().rank(), 5) << "expected NC1HWC0";
  DV_CHECK_EQ(input.shape()[0], 1) << "pipelines run one image";
  const akg::PoolImpl pool_impl = stack == PoolingStack::kAccelerated
                                      ? akg::PoolImpl::kIm2col
                                      : akg::PoolImpl::kDirect;

  Result result;
  TensorF16 cur = input;  // activations in global memory
  for (const Layer& layer : layers_) {
    LayerRun run;
    run.name = layer.name;
    auto note = [&](auto& r) {
      run.run = r.run;
      result.faults += r.run.faults;
      cur = std::move(r.out);
    };
    // Pooling layers launch through the unified entry point; the layer's
    // override descriptor (when present) wins over the PoolingStack.
    auto pool_op = [&](kernels::PoolOpKind kind) {
      if (layer.op.has_value()) return *layer.op;
      kernels::PoolOp op;
      op.kind = kind;
      op.window = layer.window;
      op.fwd = pool_impl;
      return op;
    };
    auto run_pool_layer = [&](kernels::PoolOpKind kind) {
      kernels::PoolInputs inputs;
      inputs.in = &cur;
      auto r = kernels::run_pool(dev, pool_op(kind), inputs);
      note(r);
    };
    switch (layer.kind) {
      case Kind::kConv: {
        auto r = kernels::conv2d_cube(dev, cur, layer.weights, layer.window);
        note(r);
        break;
      }
      case Kind::kMaxPool:
        run_pool_layer(kernels::PoolOpKind::kMaxFwd);
        break;
      case Kind::kAvgPool:
        run_pool_layer(kernels::PoolOpKind::kAvgFwd);
        break;
      case Kind::kGlobalAvg:
        run_pool_layer(kernels::PoolOpKind::kGlobalAvg);
        break;
    }
    run.out_shape = cur.shape();
    result.total_cycles += run.run.device_cycles;
    result.total_serial_cycles += run.run.device_cycles_serial;
    result.total_host_ns += run.run.host_ns;
    result.profile += run.run.profile;
    result.layers.push_back(std::move(run));
  }
  result.out = std::move(cur);
  return result;
}

namespace {

void append_utilization_row(std::string* out, const std::string& name,
                            std::int64_t cycles, std::int64_t serial,
                            std::int64_t host_ns, const Profile& p) {
  auto cell = [](const UnitOccupancy& u) -> std::string {
    if (u.instrs == 0) return "-";
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%5.1f%%", u.occupancy() * 100.0);
    return buf;
  };
  char line[192];
  std::snprintf(line, sizeof(line),
                "%-18s %12lld %12lld %9.1fus  %9s %8.0f%%  %7s %7s %6s %6s\n",
                name.c_str(), static_cast<long long>(cycles),
                static_cast<long long>(serial),
                static_cast<double>(host_ns) / 1000.0,
                cell(p.vec).c_str(), p.vec.saturation() * 100.0,
                cell(p.im2col).c_str(), cell(p.col2im).c_str(),
                cell(p.cube).c_str(), cell(p.mte).c_str());
  *out += line;
}

}  // namespace

std::string Pipeline::Result::utilization_table() const {
  std::string out;
  char header[192];
  std::snprintf(header, sizeof(header),
                "%-18s %12s %12s %11s  %9s %9s  %7s %7s %6s %6s\n",
                "layer", "cycles", "serial", "host", "vec-lanes", "vec-sat",
                "im2col", "col2im", "cube", "mte");
  out += header;
  out += std::string(std::strlen(header) - 1, '-') + "\n";
  for (const LayerRun& layer : layers) {
    const Device::RunResult& r = layer.run;
    append_utilization_row(&out, layer.name, r.device_cycles,
                           r.device_cycles_serial, r.host_ns, r.profile);
  }
  append_utilization_row(&out, "total", total_cycles, total_serial_cycles,
                         total_host_ns, profile);
  return out;
}

void Pipeline::Result::add_metrics(MetricsRegistry& registry,
                                   const ArchConfig& arch) const {
  for (const LayerRun& run : layers) {
    registry.add(run.name, run.run, arch);
  }
}

Pipeline::Result Pipeline::run_resilient(Device& dev, const TensorF16& input,
                                         PoolingStack stack,
                                         const ResilienceOptions& opts) const {
  // Install the policy for the duration of the run, restoring whatever was
  // there before even if a layer throws RetryExhausted.
  struct Restore {
    Device& dev;
    std::optional<ResilienceOptions> prev;
    ~Restore() {
      if (prev) {
        dev.set_resilience(*prev);
      } else {
        dev.clear_resilience();
      }
    }
  } restore{dev, dev.resilience()};
  dev.set_resilience(opts);
  return run(dev, input, stack);
}

namespace {

// fp16-rounds an fp32 tensor in place (activation storage between layers).
TensorF32 round_f16(const TensorF32& t) {
  TensorF32 out(t.shape());
  for (std::int64_t i = 0; i < t.size(); ++i) {
    out.flat(i) = Float16(t.flat(i)).to_float();
  }
  return out;
}

}  // namespace

TensorF32 Pipeline::reference(const TensorF32& input_nchw) const {
  DV_CHECK_EQ(input_nchw.shape().rank(), 4);
  TensorF32 cur = round_f16(input_nchw);
  for (const Layer& layer : layers_) {
    switch (layer.kind) {
      case Kind::kConv:
        cur = round_f16(
            ref::conv2d_nchw(cur, round_f16(layer.weights), layer.window));
        break;
      case Kind::kMaxPool:
        cur = ref::maxpool_fwd_nchw(cur, layer.window);
        break;
      case Kind::kAvgPool: {
        // Mirror the kernels' fp16 rounding: sum and scale in fp16 order.
        const TensorF16 frac = nchw_to_nc1hwc0(cur);
        const TensorF16 pooled = ref::avgpool_fwd(frac, layer.window);
        cur = nc1hwc0_to_nchw(pooled, cur.shape()[1]);
        break;
      }
      case Kind::kGlobalAvg: {
        const TensorF16 frac = nchw_to_nc1hwc0(cur);
        const TensorF16 pooled = ref::global_avgpool(frac);
        cur = nc1hwc0_to_nchw(pooled, cur.shape()[1]);
        break;
      }
    }
  }
  return cur;
}

}  // namespace davinci::nets
