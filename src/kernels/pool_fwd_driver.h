// Internal: the kernel implementation drivers behind run_pool_maps.
//
// The drivers trust their inputs: kernels::check_inputs (pooling.h) owns
// the input contract, and every entry point calls it before a driver runs
// -- run_pool for an unplanned launch, serve::Session at admission,
// serve::Cluster::run_batch before any shard runs, akg::lower_and_run. A
// driver checks only its own plan. Each takes an optional precomputed
// tiling plan (`plan`); nullptr means "plan here" via akg::plan_fwd /
// plan_bwd. The serving layer's plan cache (src/serve/plan_cache.h)
// supplies non-null plans so planning runs once per descriptor instead of
// once per launch.
//
// A driver reads and writes global memory only through its slice maps
// (block b touches slice b of every map, see kernels::SliceMap) and
// constructs nothing: kernels::make_outputs owns the output tensors. The
// launch's (N, C1) grid and geometry come from the maps' shapes.
#pragma once

#include "akg/tiling.h"
#include "kernels/pooling.h"
#include "sim/vector_unit.h"

namespace davinci::kernels {

// Shared forward driver (maxpool_fwd.cc) used by the MaxPool, MinPool,
// AvgPool and MaxPool-with-mask forward kinds; `op`/`init` select the
// reduction, `scale` (if not 1) is applied to the output tile before the
// store. A non-null `mask` (kDirect or kIm2col only) also writes the
// Argmax mask, and the launch then runs single-buffered (stages_tiles).
Device::RunResult pooling_forward_impl(Device& dev, const SliceMap& in,
                                       const SliceMap& out,
                                       const SliceMap* mask,
                                       const Window2d& w, akg::PoolImpl impl,
                                       VecOp op, Float16 init, Float16 scale,
                                       const akg::PoolPlan* plan);

// Shared backward driver (pool_bwd.cc): MaxPool backward with the Argmax
// `mask`, AvgPool backward when `mask` is null. Ih/Iw are grad_in's.
Device::RunResult pooling_backward_impl(Device& dev, const SliceMap* mask,
                                        const SliceMap& grad,
                                        const SliceMap& grad_in,
                                        const Window2d& w, MergeImpl merge,
                                        const akg::PoolPlan* plan);

// Global average pooling (extra_pooling.cc); tiles rows against UB
// directly, so it takes no akg plan.
Device::RunResult global_avgpool_impl(Device& dev, const SliceMap& in,
                                      const SliceMap& out);

}  // namespace davinci::kernels
