// Pooling kernel programs for the simulated DaVinci AI Core -- the
// implementations the paper evaluates (Section V / Figures 7-8), written
// the way their lowered CCE-C code is described:
//
//  forward (MaxPool / AvgPool):
//    * kDirect     -- standard TVM lowering (Listing 1): the reduction
//                     instruction is issued Oh*Ow*Kh times with only the
//                     C0 = 16 lanes of the 128-lane mask active, repeating
//                     over Kw. At stride width 1 the lowering recovers the
//                     full mask over (Ow, C0) rows (Figure 8a's fast case).
//    * kIm2col     -- proposed (Listing 2): the tile is loaded L1 -> UB
//                     with the Im2Col instruction in transposed repeat
//                     mode 1; a full-mask reduction instruction is issued
//                     only Kh*Kw times.
//    * kExpansion  -- the im2col shape is produced *inside* the Unified
//                     Buffer by regular vector copies, then reduced like
//                     kIm2col (Figure 8's "Maxpool with expansion").
//    * kXYSplit    -- reduce along the width, then along the height
//                     (Lai et al., Figure 8b).
//
//  backward (merge step = Col2im):
//    * kVadd       -- baseline: per-patch 16-lane vadd scatter, no repeat
//                     ("the vadd instructions only set 16 elements of the
//                     vector mask ... and repetition is not used").
//    * kCol2im     -- proposed: the Col2Im instruction performs the merge,
//                     one whole fractal per step.
//
// All kernels take NC1HWC0 fp16 tensors in global memory, tile on C1 (and
// on output height when a slice exceeds the Unified Buffer -- the plan
// comes from akg::plan_fwd / akg::plan_bwd) and distribute blocks over the
// device's AI Cores. Direct, expansion and X-Y-split kernels require zero
// padding (the paper evaluates them only without padding); the
// im2col-based kernels support padding, applied during the Im2Col load.
//
// --- Entry point ---
//
// Every operator runs through ONE entry point:
//
//   PoolResult r = run_pool(dev, PoolOp{...}, PoolInputs{...});
//
// A PoolOp is a plain descriptor (operator kind, window geometry, lowering
// choices, optional precomputed tiling plan), which makes it hashable /
// comparable -- the serving layer (src/serve/) batches requests by PoolOp
// and caches tiling plans per descriptor. See docs/API.md.
//
// Underneath, run_pool constructs the outputs (make_outputs) and runs the
// launch on slice maps (run_pool_maps) -- the same two steps
// serve::Cluster::run_batch takes for a sharded batch.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "akg/tiling.h"
#include "sim/device.h"
#include "tensor/fractal.h"
#include "tensor/pool_geometry.h"
#include "tensor/tensor.h"

namespace davinci::kernels {

// Merge-step implementation for the backward operators.
enum class MergeImpl : std::uint8_t { kVadd, kCol2im };

const char* to_string(MergeImpl impl);

// The pooling operators, forward and backward, in one enum -- the "op"
// axis of the unified descriptor.
enum class PoolOpKind : std::uint8_t {
  kMaxFwd,      // MaxPool forward (Figure 7a / 8)
  kAvgFwd,      // AvgPool forward (Section V-C)
  kMinFwd,      // MinPool forward (extension; dual of MaxPool)
  kGlobalAvg,   // global average pooling (extension)
  kMaxMaskFwd,  // MaxPool forward + Argmax mask (Figure 7b)
  kMaxBwd,      // MaxPool backward: mask * grad, Col2im merge (Figure 7c)
  kAvgBwd,      // AvgPool backward: scaled grad, Col2im merge
};

const char* to_string(PoolOpKind kind);

// True for the kinds that consume an input activation tensor and produce
// an output activation (everything except the backward passes).
bool is_forward(PoolOpKind kind);
// True for the kinds that produce a gradient w.r.t. the input.
bool is_backward(PoolOpKind kind);

// Whether a forward launch plans two tile slots and issues its H-tiles as
// overlapping stages on a device whose double-buffer policy is
// `double_buffer`. A launch that writes the Argmax mask plans and runs
// single-buffered either way.
inline bool stages_tiles(bool with_mask, bool double_buffer) {
  return double_buffer && !with_mask;
}

// The unified operator descriptor. A PoolOp fully determines *how* a
// pooling computation is lowered; the tensors it runs on arrive separately
// in PoolInputs. Two requests with equal PoolOp (ignoring `plan`) and
// equal input geometry can share one device launch and one tiling plan.
struct PoolOp {
  PoolOpKind kind = PoolOpKind::kMaxFwd;
  Window2d window{};  // ignored by kGlobalAvg
  // Forward lowering (forward kinds; kMaxMaskFwd supports kDirect/kIm2col).
  akg::PoolImpl fwd = akg::PoolImpl::kIm2col;
  // Backward merge step (backward kinds).
  MergeImpl merge = MergeImpl::kCol2im;
  // Precomputed tiling plan (forward and backward kinds with a window).
  // When set, the kernel uses it instead of re-running akg::plan_fwd /
  // plan_bwd -- this is how the serving layer's plan cache takes effect.
  // The plan must have been computed for the same (impl, window, input
  // geometry, mask, double-buffer) tuple; see serve::PlanCache.
  std::optional<akg::PoolPlan> plan = std::nullopt;

  std::string to_string() const;
};

// The tensors one pooling invocation runs on. Pointers are non-owning and
// must outlive the run_pool call. Forward kinds read `in`; backward kinds
// read `grad` (and `mask` for kMaxBwd) plus the input spatial size the
// gradient maps back to.
struct PoolInputs {
  const TensorF16* in = nullptr;    // (N, C1, Ih, Iw, C0), forward kinds
  const TensorF16* mask = nullptr;  // (N, C1, Kh, Kw, PP, C0), kMaxBwd
  const TensorF16* grad = nullptr;  // (N, C1, Oh, Ow, C0), backward kinds
  std::int64_t ih = 0, iw = 0;      // input spatial size, backward kinds
};

// The unified result: every operator fills `run` and exactly the tensors
// it produces -- `out` for forward kinds, additionally `mask` for
// kMaxMaskFwd, and `grad_in` for backward kinds. Unproduced tensors stay
// default-constructed (rank 0).
struct PoolResult {
  TensorF16 out;      // (N, C1, Oh, Ow, C0); empty for backward kinds
  TensorF16 mask;     // (N, C1, Kh, Kw, PP, C0); kMaxMaskFwd only
  TensorF16 grad_in;  // (N, C1, Ih, Iw, C0); backward kinds only
  Device::RunResult run;

  // Rank-based: a default-constructed tensor has a rank-0 shape, whose
  // num_elements() is 1 (the empty product), so size() cannot tell
  // "absent" from "scalar".
  bool has_out() const { return out.shape().rank() > 0; }
  bool has_mask() const { return mask.shape().rank() > 0; }
  bool has_grad_in() const { return grad_in.shape().rank() > 0; }
  std::int64_t cycles() const { return run.device_cycles; }
};

// The pooling input contract, in the style of ATen's pooling shape
// checks: one function owns it and every entry point calls it. Throws
// davinci::Error unless
//  * `in` carries exactly the tensors the kind reads (see PoolInputs);
//  * forward inputs are NC1HWC0 with C0 = 16, and the window is valid
//    and padded by at most half its size on each side (ATen's
//    pad <= k/2);
//  * the lowering suits the kind (kAvgFwd and kMaxMaskFwd: kDirect or
//    kIm2col) and the window (padding needs kIm2col);
//  * a backward gradient is (N, C1, Oh, Ow, 16), Oh/Ow being Equation (1)
//    of (ih, iw), and a kMaxBwd mask is (N, C1, Kh, Kw, PP, 16) of the
//    same N and C1, PP = Oh*Ow rounded up to the fractal.
void check_inputs(const PoolOp& op, const PoolInputs& in);

// Runs one pooling operator on the device. An unplanned launch (no
// op.plan) runs check_inputs first and charges it to
// run.host_validate_ns; a planned launch skips it, so a caller that
// attaches a plan must have checked the inputs itself (serve::Session
// does so at admission). The output construction (make_outputs) is
// charged to run.host_alloc_ns.
PoolResult run_pool(Device& dev, const PoolOp& op, const PoolInputs& in);

// Constructs the tensors `op` produces for `in`, which must pass
// check_inputs: `out`, `mask` and `grad_in` shaped as PoolResult
// documents; `run` stays empty. The one owner of the output shapes and
// of the zero-fill rule. Storage starts uninitialized (arena reuse, no
// memset) because the kernels store every element, except
//  * the mask's fractal tail rows (PP - Oh*Ow per (kh, kw) plane), which
//    no kernel stores (they are compared by result checks and read by the
//    backward pass): only those rows are zeroed;
//  * a backward grad_in whose tile stores leave input rows uncovered
//    (Sh > Kh gaps, or windows that stop short of Ih): those rows are
//    the zero gradient;
//  * every output when `resilient` (a resilience policy runs the
//    launch): a truncated (mte_drop) store can leave bytes unwritten,
//    and zeros keep them deterministic for the verification layer.
PoolResult make_outputs(const PoolOp& op, const PoolInputs& in,
                        bool resilient);

// A tensor of one launch addressed per (N, C1) slice: `shape` is the
// tensor as the launch sees it, (N, C1, ...), and slice b = n * C1 + c1
// is the shape.stride(1) elements at base[b]. The slices need not be
// adjacent or in order -- a cluster shard's maps point straight into its
// members' tensors (serve/cluster.h).
struct SliceMap {
  Shape shape;
  std::vector<Float16*> base;

  // The map of a whole contiguous tensor; a null or rank-0 (absent)
  // tensor maps to the default, empty map.
  static SliceMap whole(const TensorF16* t);
  std::int64_t slices() const {
    return static_cast<std::int64_t>(base.size());
  }
  // Slice b as a bounds-checked global-memory span.
  Span<Float16> slice(std::int64_t b) const;
};

// One launch's tensors as slice maps over one (N, C1) grid: the ones its
// kind reads (PoolInputs' fields) and the ones it writes (PoolResult's).
// A tensor the kind does not touch stays a default (rank-0) map.
struct PoolMaps {
  SliceMap in, mask, grad;          // read
  SliceMap out, out_mask, grad_in;  // written
};

// Runs `op` on slice maps: the launch path under run_pool and under
// serve::Cluster::run_batch. The slice-addressing rule every kernel keeps
// is what makes maps sound: block b computes slice b of each output from
// slice b of each input alone, and touches global memory only as
// slice(b).sub(offset, len). The maps are trusted: the tensors behind
// them passed check_inputs, and the output maps cover make_outputs'
// tensors for the same geometry. Charges host_plan_ns (when op.plan is
// unset) and host_execute_ns; no alloc or validate time.
Device::RunResult run_pool_maps(Device& dev, const PoolOp& op,
                                const PoolMaps& maps);

}  // namespace davinci::kernels
