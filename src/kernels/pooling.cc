// The PoolOp entry points. run_pool_maps is the only path into the
// pooling kernels: it dispatches a launch's slice maps to the internal
// implementation drivers (pool_fwd_driver.h). run_pool checks the input
// contract (check_inputs) unless the launch carries a plan, constructs
// the outputs (make_outputs) and runs on whole-tensor maps.
#include "kernels/pooling.h"

#include <algorithm>

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

Device::RunResult dispatch(Device& dev, const PoolOp& op,
                           const PoolMaps& m) {
  const akg::PoolPlan* plan = op.plan.has_value() ? &*op.plan : nullptr;
  switch (op.kind) {
    case PoolOpKind::kMaxFwd:
    case PoolOpKind::kMaxMaskFwd:
      return pooling_forward_impl(
          dev, m.in, m.out,
          op.kind == PoolOpKind::kMaxMaskFwd ? &m.out_mask : nullptr,
          op.window, op.fwd, VecOp::kMax, Float16::lowest(), Float16(1.0f),
          plan);
    case PoolOpKind::kMinFwd:
      // Dual reduction: vmin and a +max-finite initializer. Zero padding
      // participates as 0, mirroring what the Im2Col instruction loads.
      return pooling_forward_impl(dev, m.in, m.out, nullptr, op.window,
                                  op.fwd, VecOp::kMin, Float16::max_finite(),
                                  Float16(1.0f), plan);
    case PoolOpKind::kAvgFwd: {
      const Float16 inv(1.0f /
                        static_cast<float>(op.window.kh * op.window.kw));
      return pooling_forward_impl(dev, m.in, m.out, nullptr, op.window,
                                  op.fwd, VecOp::kAdd, Float16(), inv, plan);
    }
    case PoolOpKind::kGlobalAvg:
      return global_avgpool_impl(dev, m.in, m.out);
    case PoolOpKind::kMaxBwd:
    case PoolOpKind::kAvgBwd:
      return pooling_backward_impl(
          dev, op.kind == PoolOpKind::kMaxBwd ? &m.mask : nullptr, m.grad,
          m.grad_in, op.window, op.merge, plan);
  }
  throw Error("run_pool: unknown PoolOpKind");
}

}  // namespace

SliceMap SliceMap::whole(const TensorF16* t) {
  SliceMap m;
  if (t == nullptr || t->shape().rank() == 0) return m;
  m.shape = t->shape();
  const std::int64_t slices = m.shape[0] * m.shape[1];
  const std::int64_t elems = m.shape.stride(1);
  Float16* data = const_cast<Float16*>(t->data());
  m.base.resize(static_cast<std::size_t>(slices));
  for (std::int64_t b = 0; b < slices; ++b) {
    m.base[static_cast<std::size_t>(b)] = data + b * elems;
  }
  return m;
}

Span<Float16> SliceMap::slice(std::int64_t b) const {
  DV_CHECK(b >= 0 && b < slices())
      << "slice " << b << " of " << slices() << " in " << shape.to_string();
  return gm_span(base[static_cast<std::size_t>(b)], shape.stride(1));
}

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

PoolResult make_outputs(const PoolOp& op, const PoolInputs& in,
                        bool resilient) {
  auto make = [&](Shape shape, bool zero) {
    return zero || resilient ? TensorF16(shape)
                             : TensorF16(shape, kUninitialized);
  };
  PoolResult res;
  if (is_forward(op.kind)) {
    const Shape& s = in.in->shape();
    if (op.kind == PoolOpKind::kGlobalAvg) {
      res.out = make(Shape{s[0], s[1], 1, 1, kC0}, false);
      return res;
    }
    const Window2d& w = op.window;
    const std::int64_t oh = w.out_h(s[2]), ow = w.out_w(s[3]);
    res.out = make(Shape{s[0], s[1], oh, ow, kC0}, false);
    if (op.kind == PoolOpKind::kMaxMaskFwd) {
      const std::int64_t pp = round_up(oh * ow, kFractalRows);
      res.mask = make(Shape{s[0], s[1], w.kh, w.kw, pp, kC0}, false);
      if (!resilient) {
        // The kernels store rows [0, Oh*Ow) of every (kh, kw) plane; only
        // the fractal tail rows up to PP are left to zero.
        const std::int64_t planes = s[0] * s[1] * w.kh * w.kw;
        for (std::int64_t p = 0; p < planes; ++p) {
          std::fill_n(res.mask.data() + (p * pp + oh * ow) * kC0,
                      (pp - oh * ow) * kC0, Float16());
        }
      }
    }
    return res;
  }
  // The tile stores cover every input row unless Sh > Kh leaves gaps
  // between windows or the last window stops short of Ih.
  const Shape& g = in.grad->shape();
  const Window2d& w = op.window;
  const bool full_cover =
      w.kh >= w.sh && (g[2] - 1) * w.sh + w.kh - w.pt >= in.ih;
  res.grad_in = make(Shape{g[0], g[1], in.ih, in.iw, kC0}, !full_cover);
  return res;
}

Device::RunResult run_pool_maps(Device& dev, const PoolOp& op,
                                const PoolMaps& maps) {
  // With an instruction-stream VM attached (serve::Session), stage the
  // launch's display label before dispatch.
  if (dev.vm_stream() != nullptr) dev.annotate_vm_launch(op.to_string());
  return dispatch(dev, op, maps);
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
  const std::int64_t t0 = detail::host_now_ns();
  PoolResult res = make_outputs(op, in, dev.resilience().has_value());
  const std::int64_t alloc_ns = detail::host_now_ns() - t0;
  const PoolMaps maps{.in = SliceMap::whole(in.in),
                      .mask = SliceMap::whole(in.mask),
                      .grad = SliceMap::whole(in.grad),
                      .out = SliceMap::whole(&res.out),
                      .out_mask = SliceMap::whole(&res.mask),
                      .grad_in = SliceMap::whole(&res.grad_in)};
  res.run = run_pool_maps(dev, op, maps);
  res.run.host_validate_ns += validate_ns;
  res.run.host_alloc_ns += alloc_ns;
  res.run.host_ns += validate_ns + alloc_ns;
  return res;
}

}  // namespace davinci::kernels
