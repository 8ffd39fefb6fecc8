// The PoolOp entry point. run_pool is the only path into the pooling
// kernels: it checks the input contract (check_inputs) unless the launch
// carries a plan, then dispatches to the internal implementation drivers
// (pool_fwd_driver.h).
#include "kernels/pooling.h"

#include "common/check.h"
#include "kernels/detail.h"
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

// A request carries exactly the tensors its kind reads.
void check_present(const TensorF16* t, bool read, const PoolOp& op,
                   const char* what) {
  DV_CHECK(read == (t != nullptr))
      << op.to_string() << ": " << (read ? "missing" : "unexpected")
      << " input tensor '" << what << "'";
}

PoolResult dispatch(Device& dev, const PoolOp& op, const PoolInputs& in) {
  const akg::PoolPlan* plan = op.plan.has_value() ? &*op.plan : nullptr;
  switch (op.kind) {
    case PoolOpKind::kMaxFwd:
      return pooling_forward_impl(dev, *in.in, op.window, op.fwd, VecOp::kMax,
                                  Float16::lowest(), Float16(1.0f), plan);
    case PoolOpKind::kMinFwd:
      // Dual reduction: vmin and a +max-finite initializer. Zero padding
      // participates as 0, mirroring what the Im2Col instruction loads.
      return pooling_forward_impl(dev, *in.in, op.window, op.fwd, VecOp::kMin,
                                  Float16::max_finite(), Float16(1.0f), plan);
    case PoolOpKind::kAvgFwd: {
      const Float16 inv(1.0f /
                        static_cast<float>(op.window.kh * op.window.kw));
      return pooling_forward_impl(dev, *in.in, op.window, op.fwd, VecOp::kAdd,
                                  Float16(), inv, plan);
    }
    case PoolOpKind::kGlobalAvg:
      return global_avgpool_impl(dev, *in.in);
    case PoolOpKind::kMaxMaskFwd:
      return maxpool_mask_fwd_impl(dev, *in.in, op.window, op.fwd, plan);
    case PoolOpKind::kMaxBwd:
    case PoolOpKind::kAvgBwd:
      return pooling_backward_impl(
          dev, op.kind == PoolOpKind::kMaxBwd ? in.mask : nullptr, *in.grad,
          op.window, in.ih, in.iw, op.merge, plan);
  }
  throw Error("run_pool: unknown PoolOpKind");
}

}  // namespace

void check_inputs(const PoolOp& op, const PoolInputs& in) {
  const bool fwd = is_forward(op.kind);
  check_present(in.in, fwd, op, "in");
  check_present(in.mask, op.kind == PoolOpKind::kMaxBwd, op, "mask");
  check_present(in.grad, !fwd, op, "grad");
  if (fwd) {
    const Shape& s = in.in->shape();
    DV_CHECK(s.rank() == 5 && s[4] == kC0)
        << op.to_string() << ": in is " << s.to_string()
        << ", expected NC1HWC0 with C0 = " << kC0;
  }
  if (op.kind == PoolOpKind::kGlobalAvg) return;

  const Window2d& w = op.window;
  w.validate();
  if (fwd) {
    if (op.kind == PoolOpKind::kAvgFwd || op.kind == PoolOpKind::kMaxMaskFwd) {
      DV_CHECK(op.fwd == akg::PoolImpl::kDirect ||
               op.fwd == akg::PoolImpl::kIm2col)
          << op.to_string() << ": supports only kDirect and kIm2col";
    }
    DV_CHECK(op.fwd == akg::PoolImpl::kIm2col || !w.has_padding())
        << op.to_string()
        << ": the kernel supports only unpadded windows; use kIm2col";
    return;
  }

  // Backward: the gradient has the forward output's geometry, and the
  // Argmax mask is (N, C1, Kh, Kw, PP, C0) of the same N and C1.
  const Shape& g = in.grad->shape();
  DV_CHECK_EQ(g.rank(), 5) << op.to_string() << ": grad is (N,C1,Oh,Ow,C0)";
  const std::int64_t oh = w.out_h(in.ih), ow = w.out_w(in.iw);
  const Shape want_grad{g[0], g[1], oh, ow, kC0};
  DV_CHECK(g == want_grad) << op.to_string() << ": grad is " << g.to_string()
                           << ", expected " << want_grad.to_string();
  if (in.mask != nullptr) {
    const Shape want_mask{g[0], g[1], w.kh, w.kw,
                          round_up(oh * ow, kFractalRows), kC0};
    DV_CHECK(in.mask->shape() == want_mask)
        << op.to_string() << ": mask is " << in.mask->shape().to_string()
        << ", expected " << want_mask.to_string();
  }
}

PoolResult run_pool(Device& dev, const PoolOp& op, const PoolInputs& in) {
  // A planned launch was checked when its plan was attached (the serving
  // session screens every request at admission); an unplanned one is
  // checked here, in the launch's validate bucket.
  std::int64_t validate_ns = 0;
  if (!op.plan.has_value()) {
    const std::int64_t t0 = detail::host_now_ns();
    check_inputs(op, in);
    validate_ns = detail::host_now_ns() - t0;
  }
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
  PoolResult res = dispatch(dev, op, in);
  res.run.host_validate_ns += validate_ns;
  res.run.host_ns += validate_ns;
  return res;
}

}  // namespace davinci::kernels
