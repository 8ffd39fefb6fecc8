// A small forward-pipeline runner: sequences of Conv / MaxPool / AvgPool /
// GlobalAvgPool layers executed on the simulated device with per-layer
// cycle accounting -- the "adopt this library in a network" surface.
// Layer outputs stay in the NC1HWC0 global-memory format between layers,
// exactly like activations on the real chip.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "akg/tiling.h"
#include "kernels/pooling.h"
#include "sim/device.h"
#include "tensor/pool_geometry.h"
#include "tensor/tensor.h"

namespace davinci::nets {

// How pooling layers are scheduled throughout a pipeline run.
enum class PoolingStack : std::uint8_t {
  kStandard,     // direct forward (Listing 1)
  kAccelerated,  // Im2col-based forward (Listing 2)
};

class Pipeline {
 public:
  // Convolution on the Cube Unit; weights (Cout, C, Kh, Kw) are supplied
  // by the caller (C must match the running channel count).
  Pipeline& conv(TensorF32 weights, const Window2d& window,
                 std::string name = "conv");
  Pipeline& maxpool(const Window2d& window, std::string name = "maxpool");
  Pipeline& avgpool(const Window2d& window, std::string name = "avgpool");
  Pipeline& global_avgpool(std::string name = "global_avgpool");

  // Per-layer overrides: the layer runs exactly this descriptor (window,
  // lowering, precomputed plan) regardless of the PoolingStack passed to
  // run(). op.kind must match the layer type (kMaxFwd / kAvgFwd).
  Pipeline& maxpool(const kernels::PoolOp& op, std::string name = "maxpool");
  Pipeline& avgpool(const kernels::PoolOp& op, std::string name = "avgpool");

  struct LayerRun {
    std::string name;
    Shape out_shape;
    // The layer's launch: cycles (overlapped and serial), host time,
    // occupancy, traffic, attribution.
    Device::RunResult run;
  };

  struct Result {
    TensorF16 out;
    std::vector<LayerRun> layers;
    std::int64_t total_cycles = 0;
    std::int64_t total_serial_cycles = 0;
    std::int64_t total_host_ns = 0;
    Profile profile;    // summed over layers
    FaultStats faults;  // summed over layers; all-zero without injection

    // Per-layer utilization table (one row per layer plus a total row):
    // overlapped and serial cycles, host wall-clock, mean vector-lane
    // utilization, fraction of full-mask vector instructions, and SCU /
    // MTE occupancy -- the quantities Section V of the paper reasons
    // about, per layer.
    std::string utilization_table() const;
  };

  // Runs the whole pipeline on `input` ((N=1, C1, H, W, C0) fp16). If a
  // resilience policy is installed on `dev` (Device::set_resilience),
  // every layer executes under it and Result::faults aggregates the
  // per-layer fault reports.
  Result run(Device& dev, const TensorF16& input, PoolingStack stack) const;

  // Runs the pipeline with fault injection / retry per `opts`: installs
  // the policy on `dev` for the duration of the call and restores the
  // previous policy afterwards (exception-safe). Throws RetryExhausted if
  // any layer cannot complete within its retry budget.
  Result run_resilient(Device& dev, const TensorF16& input, PoolingStack stack,
                       const ResilienceOptions& opts) const;

  // Reference forward pass (NCHW fp32 in, fp16-rounded activations
  // between layers so it tracks the device pipeline), for validation.
  TensorF32 reference(const TensorF32& input_nchw) const;

  std::size_t num_layers() const { return layers_.size(); }

 private:
  enum class Kind : std::uint8_t { kConv, kMaxPool, kAvgPool, kGlobalAvg };

  struct Layer {
    Kind kind;
    std::string name;
    Window2d window;
    TensorF32 weights;  // conv only
    // Pooling layers only: when set, run() launches exactly this
    // descriptor instead of deriving one from the PoolingStack.
    std::optional<kernels::PoolOp> op = std::nullopt;
  };

  std::vector<Layer> layers_;
};

}  // namespace davinci::nets
