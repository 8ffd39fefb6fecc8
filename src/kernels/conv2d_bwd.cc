#include "kernels/conv2d_bwd.h"

#include "akg/tiling.h"
#include "common/align.h"
#include "kernels/detail.h"
#include "sim/scu.h"

namespace davinci::kernels {

namespace {
using detail::gm_view;
}  // namespace

TensorF16 pack_conv_weights_transposed(const TensorF32& weights,
                                       const Window2d& w, std::int64_t c1) {
  DV_CHECK_EQ(weights.shape().rank(), 4) << "(Cout, C, Kh, Kw)";
  const std::int64_t cout = weights.shape()[0];
  const std::int64_t c = weights.shape()[1];
  DV_CHECK_EQ(weights.shape()[2], w.kh);
  DV_CHECK_EQ(weights.shape()[3], w.kw);
  DV_CHECK_EQ(c1_of(c), c1);
  const std::int64_t k16 = c1 * w.kh * w.kw;
  const std::int64_t n16f = ceil_div(cout, kFractalRows);

  TensorF16 packed(Shape{n16f * k16 * kFractalElems});
  for (std::int64_t fb = 0; fb < n16f; ++fb) {
    for (std::int64_t kb = 0; kb < k16; ++kb) {
      const std::int64_t q = kb / (w.kh * w.kw);
      const std::int64_t kh = (kb / w.kw) % w.kh;
      const std::int64_t kw = kb % w.kw;
      const std::int64_t base = (fb * k16 + kb) * kFractalElems;
      for (std::int64_t r = 0; r < kFractalRows; ++r) {   // output channel
        const std::int64_t f = fb * kC0 + r;
        for (std::int64_t j = 0; j < kC0; ++j) {          // input channel
          const std::int64_t ch = q * kC0 + j;
          const float v =
              (f < cout && ch < c) ? weights.at(f, ch, kh, kw) : 0.0f;
          packed.flat(base + r * kC0 + j) = Float16(v);
        }
      }
    }
  }
  return packed;
}

Conv2dBwdResult conv2d_backward_input(Device& dev, const TensorF16& grad_out,
                                      const TensorF32& weights,
                                      const Window2d& w, std::int64_t ih,
                                      std::int64_t iw, MergeImpl merge) {
  DV_CHECK_EQ(grad_out.shape().rank(), 5) << "expected NC1HWC0 gradient";
  DV_CHECK_EQ(grad_out.shape()[0], 1) << "single image";
  w.validate();
  const std::int64_t cout = weights.shape()[0];
  const std::int64_t c = weights.shape()[1];
  const std::int64_t c1 = c1_of(c);
  const std::int64_t n16f = ceil_div(cout, kFractalRows);
  DV_CHECK_EQ(grad_out.shape()[1], n16f) << "gradient channel blocks";
  const std::int64_t oh = w.out_h(ih), ow = w.out_w(iw);
  DV_CHECK_EQ(grad_out.shape()[2], oh);
  DV_CHECK_EQ(grad_out.shape()[3], ow);
  const std::int64_t khkw = w.kh * w.kw;
  const std::int64_t k16 = c1 * khkw;

  const ArchConfig& arch = dev.arch();
  const std::int64_t frac16 = kFractalElems * 2;   // bytes per fp16 fractal
  const std::int64_t frac32 = kFractalElems * 4;   // bytes per fp32 fractal
  DV_CHECK_LE(n16f * khkw * frac16, arch.l0b_bytes)
      << "per-slice weight set exceeds L0B";

  // Largest patch-row tile fitting L0A (dOut fractals), L0C (dCols
  // accumulators) and UB (dCols fp16 + the input-gradient slice + seam).
  const std::int64_t seam_rows = w.kh > w.sh ? w.kh - w.sh : 0;
  auto fits = [&](std::int64_t oh_tile) {
    const std::int64_t m_frac = ceil_div(oh_tile * ow, kFractalRows);
    const std::int64_t in_rows = (oh_tile - 1) * w.sh + w.kh;
    if (m_frac * n16f * frac16 > arch.l0a_bytes) return false;
    if (m_frac * khkw * frac32 > arch.l0c_bytes) return false;
    const std::int64_t ub =
        round_up(khkw * m_frac * kFractalElems * 2, 32) +   // dCols
        round_up(in_rows * iw * kC0 * 2, 32) +              // grad_in slice
        round_up(seam_rows * iw * kC0 * 2, 32) + 1024;      // seam + slack
    return ub <= arch.ub_bytes;
  };
  DV_CHECK(fits(1)) << "a single output row does not fit the Cube buffers";
  std::int64_t oh_tile = 1;
  while (oh_tile < oh && fits(oh_tile + 1)) ++oh_tile;
  const std::int64_t num_tiles = ceil_div(oh, oh_tile);

  const TensorF16 packed_t = pack_conv_weights_transposed(weights, w, c1);
  TensorF16 grad_in(Shape{1, c1, ih, iw, kC0});

  // One block per input-channel slice ("tiling the computation on C1");
  // patch tiles run sequentially with seam accumulation, like the pooling
  // backward kernels.
  auto run = dev.run(c1, [&](AiCore& core, std::int64_t q) {
    for (std::int64_t t = 0; t < num_tiles; ++t) {
      core.reset_scratch();
      const akg::HTile ht = akg::h_tile(w, ih, oh, oh_tile, t);
      Window2d wt = w;
      wt.pt = ht.pt_eff;
      wt.pb = ht.pb_eff;
      const std::int64_t in_rows = ht.in_rows();
      const std::int64_t tp = ht.out_rows() * ow;
      const std::int64_t m_frac = ceil_div(tp, kFractalRows);
      const std::int64_t pp = m_frac * kFractalRows;
      const std::int64_t plane = pp * kC0;

      // A: dOut fractals (mb, fb) -- rows are patches, columns are the
      // 16 output channels of block fb.
      auto a = core.l0a().alloc<Float16>(m_frac * n16f * kFractalElems);
      auto l1g = core.l1().alloc<Float16>(tp * kC0);
      for (std::int64_t fb = 0; fb < n16f; ++fb) {
        auto gm_plane = gm_view(grad_out)
                            .sub(((fb * oh) + ht.o0) * ow * kC0, tp * kC0);
        core.mte().copy(l1g, gm_plane, tp * kC0);
        const std::int64_t full = tp / kFractalRows;
        if (full > 0) {
          core.mte().copy_2d(a.drop_front(fb * kFractalElems),
                             n16f * kFractalElems, l1g, kFractalElems, full,
                             kFractalElems);
        }
        const std::int64_t rem = tp % kFractalRows;
        if (rem > 0) {
          core.mte().copy(
              a.sub((full * n16f + fb) * kFractalElems, rem * kC0),
              l1g.sub(full * kFractalElems, rem * kC0), rem * kC0);
        }
      }

      // B: the W^T slice for this input-channel block: fractals
      // (fb, kb-local), kb-local over the Kh*Kw kernel positions.
      auto l1b = core.l1().alloc<Float16>(n16f * khkw * kFractalElems);
      core.mte().copy_2d(
          l1b, khkw * kFractalElems,
          gm_view(packed_t)
              .sub(q * khkw * kFractalElems,
                   ((n16f - 1) * k16 + khkw) * kFractalElems),
          k16 * kFractalElems, n16f, khkw * kFractalElems);
      auto b = core.l0b().alloc<Float16>(n16f * khkw * kFractalElems);
      core.mte().copy(b, l1b, n16f * khkw * kFractalElems);

      // dCols(mb, kb) = sum over fb of dOut(mb, fb) x W^T(fb, kb).
      auto cbuf = core.l0c().alloc<float>(m_frac * khkw * kFractalElems);
      core.cube().mmad(cbuf, a, b, m_frac, n16f, khkw, /*accumulate=*/false);
      core.pipe_barrier();

      // Drain to the Unified Buffer in the Col2Im plane-major layout:
      // one strided converting transfer per kernel position.
      auto cols = core.ub().alloc<Float16>(khkw * plane);
      for (std::int64_t kb = 0; kb < khkw; ++kb) {
        core.mte().copy_convert_2d(
            cols.drop_front(kb * plane), kFractalElems,
            cbuf.drop_front(kb * kFractalElems), khkw * kFractalElems,
            m_frac, kFractalElems);
      }
      core.pipe_barrier();

      auto out = core.ub().alloc<Float16>(in_rows * iw * kC0);
      core.vdup_flat(out, Float16(), in_rows * iw * kC0);
      core.pipe_barrier();

      Im2colArgs args;
      args.window = wt;
      args.ih = in_rows;
      args.iw = iw;
      DV_CHECK_EQ(args.patches(), tp);
      if (merge == MergeImpl::kCol2im) {
        core.scu().col2im(out, cols, args);
      } else {
        // Baseline merge: per-patch 16-lane vadd scatter, no repetition.
        detail::vadd_merge(core, out, cols, plane, args);
      }

      // Seam accumulation with the previous tile, then store.
      auto gm_out_tile = gm_view(grad_in).sub(
          (q * ih + ht.y0) * iw * kC0, in_rows * iw * kC0);
      const std::int64_t seam =
          t > 0 ? (seam_rows < in_rows ? seam_rows : in_rows) : 0;
      if (seam > 0) {
        const std::int64_t n_seam = seam * iw * kC0;
        auto prev = core.ub().alloc<Float16>(n_seam);
        core.mte().copy(prev, gm_out_tile, n_seam);
        core.pipe_barrier();
        core.vbin_flat(VecOp::kAdd, out, out, prev, n_seam);
      }
      core.pipe_barrier();
      core.mte().copy(gm_out_tile, out, in_rows * iw * kC0);
    }
  });

  return Conv2dBwdResult{std::move(grad_in), run};
}

}  // namespace davinci::kernels
