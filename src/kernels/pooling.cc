// The PoolOp entry point. run_pool is the only path into the pooling
// kernels: it validates the descriptor/input combination once, then
// dispatches to the internal implementation drivers (pool_fwd_driver.h).
#include "kernels/pooling.h"

#include "common/check.h"
#include "kernels/pool_fwd_driver.h"

namespace davinci::kernels {

const char* to_string(MergeImpl impl) {
  switch (impl) {
    case MergeImpl::kVadd: return "vadd";
    case MergeImpl::kCol2im: return "col2im";
  }
  return "?";
}

const char* to_string(PoolOpKind kind) {
  switch (kind) {
    case PoolOpKind::kMaxFwd: return "maxpool";
    case PoolOpKind::kAvgFwd: return "avgpool";
    case PoolOpKind::kMinFwd: return "minpool";
    case PoolOpKind::kGlobalAvg: return "global_avgpool";
    case PoolOpKind::kMaxMaskFwd: return "maxpool_mask";
    case PoolOpKind::kMaxBwd: return "maxpool_bwd";
    case PoolOpKind::kAvgBwd: return "avgpool_bwd";
  }
  return "?";
}

bool is_forward(PoolOpKind kind) {
  return kind == PoolOpKind::kMaxFwd || kind == PoolOpKind::kAvgFwd ||
         kind == PoolOpKind::kMinFwd || kind == PoolOpKind::kGlobalAvg ||
         kind == PoolOpKind::kMaxMaskFwd;
}

bool is_backward(PoolOpKind kind) {
  return kind == PoolOpKind::kMaxBwd || kind == PoolOpKind::kAvgBwd;
}

std::string PoolOp::to_string() const {
  std::string s = kernels::to_string(kind);
  if (kind == PoolOpKind::kGlobalAvg) return s;
  s += ' ';
  s += window.to_string();
  if (is_forward(kind)) {
    s += std::string(" impl=") + akg::to_string(fwd);
  } else {
    s += std::string(" merge=") + kernels::to_string(merge);
  }
  return s;
}

namespace {

const akg::PoolPlan* plan_ptr(const PoolOp& op) {
  return op.plan.has_value() ? &*op.plan : nullptr;
}

const TensorF16& need(const TensorF16* t, const PoolOp& op,
                      const char* what) {
  DV_CHECK(t != nullptr) << op.to_string() << ": missing input tensor '"
                         << what << "'";
  return *t;
}

}  // namespace

PoolResult run_pool(Device& dev, const PoolOp& op, const PoolInputs& in) {
  // With an instruction-stream VM attached (serve::Session), stage the
  // launch's identity before dispatch: the display label and the input
  // buffers it reads, which the stream's dependency tracker uses for
  // RAW/WAR hazards. The annotation is free when no stream is attached.
  if (dev.vm_stream() != nullptr) {
    std::vector<vm::BufferId> reads;
    for (const TensorF16* t : {in.in, in.mask, in.grad}) {
      if (t != nullptr) {
        reads.push_back(reinterpret_cast<vm::BufferId>(t->data()));
      }
    }
    dev.annotate_vm_launch(op.to_string(), std::move(reads));
  }
  switch (op.kind) {
    case PoolOpKind::kMaxFwd:
      return pooling_forward_impl(dev, need(in.in, op, "in"), op.window,
                                  op.fwd, VecOp::kMax, Float16::lowest(),
                                  Float16(1.0f), plan_ptr(op));
    case PoolOpKind::kMinFwd:
      // Dual reduction: vmin and a +max-finite initializer. Zero padding
      // participates as 0, mirroring what the Im2Col instruction loads.
      return pooling_forward_impl(dev, need(in.in, op, "in"), op.window,
                                  op.fwd, VecOp::kMin, Float16::max_finite(),
                                  Float16(1.0f), plan_ptr(op));
    case PoolOpKind::kAvgFwd: {
      DV_CHECK(op.fwd == akg::PoolImpl::kDirect ||
               op.fwd == akg::PoolImpl::kIm2col)
          << "AvgPool forward supports kDirect and kIm2col";
      const Float16 inv(1.0f /
                        static_cast<float>(op.window.kh * op.window.kw));
      return pooling_forward_impl(dev, need(in.in, op, "in"), op.window,
                                  op.fwd, VecOp::kAdd, Float16(), inv,
                                  plan_ptr(op));
    }
    case PoolOpKind::kGlobalAvg:
      return global_avgpool_impl(dev, need(in.in, op, "in"));
    case PoolOpKind::kMaxMaskFwd:
      return maxpool_mask_fwd_impl(dev, need(in.in, op, "in"), op.window,
                                   op.fwd, plan_ptr(op));
    case PoolOpKind::kMaxBwd:
      return maxpool_bwd_impl(dev, need(in.mask, op, "mask"),
                              need(in.grad, op, "grad"), op.window, in.ih,
                              in.iw, op.merge, plan_ptr(op));
    case PoolOpKind::kAvgBwd:
      return avgpool_bwd_impl(dev, need(in.grad, op, "grad"), op.window,
                              in.ih, in.iw, op.merge, plan_ptr(op));
  }
  throw Error("run_pool: unknown PoolOpKind");
}

}  // namespace davinci::kernels
