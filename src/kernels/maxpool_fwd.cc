// MaxPool forward kernels (Section V-A, Figures 7a and 8).
//
// Every implementation is written as a sequence of *phases* (load,
// transform, reduce, store) issued through detail::staged. With the
// device's double-buffer policy off the phases execute on the strictly
// serial timeline with the classic pipe_barrier between them; with it on
// (the default) the driver plans akg::PoolPlan::ub_slots tile slots and
// issues consecutive H-tiles in ping-pong mode, so tile t+1's MTE load
// and Im2Col overlap tile t's Vector reduction. Outputs are bit-identical
// either way -- only the placement of the charged cycles on the per-unit
// timeline (sim/pipe_schedule.h) changes.
#include <algorithm>
#include <vector>

#include "akg/tiling.h"
#include "kernels/detail.h"
#include "kernels/pool_fwd_driver.h"
#include "kernels/pooling.h"
#include "sim/scu.h"

namespace davinci::kernels {

namespace {

using akg::HTile;
using akg::PoolImpl;
using detail::staged;
using Event = PipeScheduler::Event;

struct TileGeom {
  Window2d w;          // per-tile window (with effective paddings)
  std::int64_t in_rows, iw, oh_t, ow;
  std::int64_t tile_patches() const { return oh_t * ow; }
};

// One ping-pong slot: the buffers a tile occupies and the completion
// events after which each may be overwritten (WAR dependencies between
// tile t and tile t+ub_slots, which reuses the slot).
struct FwdSlot {
  Span<Float16> stage_in;  // input tile (L1 for kIm2col, UB otherwise)
  Span<Float16> work;      // cols (kIm2col/kExpansion) / tmp (kXYSplit)
  Span<Float16> out;       // output tile in UB
  Event in_free = 0;       // stage_in fully consumed
  Event work_free = 0;     // work fully consumed
  Event out_free = 0;      // out stored to GM
};

// Standard TVM lowering (Listing 1). Requires no padding. At Sw == 1 the
// lowering vectorizes over whole (Ow, C0) rows with a full mask; otherwise
// the reduction instruction handles one patch row at a time with only the
// C0 lanes active, repeating over Kw -- issued Oh*Ow*Kh times.
void direct_reduce(AiCore& core, VecOp op, Span<Float16> out,
                   Span<Float16> in, const TileGeom& g) {
  if (g.w.sw == 1) {
    // Fast case (Figure 8a): consecutive patches are consecutive in
    // memory, so the lowering saturates the 128-lane mask over (Ow, C0)
    // rows and lets the repeat parameter walk the output rows -- only
    // ceil(Ow*C0/128) instructions per kernel position.
    for (std::int64_t kh = 0; kh < g.w.kh; ++kh) {
      for (std::int64_t kw = 0; kw < g.w.kw; ++kw) {
        detail::row_strided_binary(
            core, op, out, g.ow * kC0, out, g.ow * kC0,
            in.drop_front((kh * g.iw + kw) * kC0), g.w.sh * g.iw * kC0,
            g.oh_t, g.ow * kC0);
        core.scalar_loop(1);
      }
    }
  } else {
    // General case: 16 of 128 mask lanes, repeat over Kw, one instruction
    // per (oh, ow, kh).
    for (std::int64_t oh = 0; oh < g.oh_t; ++oh) {
      for (std::int64_t ow = 0; ow < g.ow; ++ow) {
        auto dst = out.sub((oh * g.ow + ow) * kC0, kC0);
        for (std::int64_t kh = 0; kh < g.w.kh; ++kh) {
          VecConfig cfg;
          cfg.mask = VecMask::first_n(static_cast<int>(kC0));
          cfg.repeat = static_cast<int>(g.w.kw);
          cfg.dst_rep_stride = 0;   // reduction idiom
          cfg.src0_rep_stride = 0;
          cfg.src1_rep_stride = kC0;
          auto src = in.sub(
              ((oh * g.w.sh + kh) * g.iw + ow * g.w.sw) * kC0, g.w.kw * kC0);
          core.vec().binary(op, dst, dst, src, cfg);
          core.scalar_loop(1);
        }
      }
    }
  }
}

void maybe_scale(AiCore& core, Span<Float16> out, Float16 scale,
                 std::int64_t n) {
  if (!(scale == Float16(1.0f))) {
    // AvgPool's element-wise division, applied in UB before the store
    // (Section V-C).
    core.vmuls_flat(out, out, scale, n);
  }
}

void direct_tile(AiCore& core, bool db, FwdSlot& sl, VecOp op, Float16 init,
                 Float16 scale, Span<Float16> gm_in, Span<Float16> gm_out,
                 const TileGeom& g) {
  const std::int64_t n_in = g.in_rows * g.iw * kC0;
  const std::int64_t n_out = g.tile_patches() * kC0;
  auto in = sl.stage_in.sub(0, n_in);
  auto out = sl.out.sub(0, n_out);
  const Event load_done = staged(core, db, Pipe::kMteIn, sl.in_free,
                                 [&] { core.mte().copy(in, gm_in, n_in); });
  const Event init_done = staged(core, db, Pipe::kVector, sl.out_free,
                                 [&] { core.vdup_flat(out, init, n_out); });
  if (!db) core.pipe_barrier();
  const Event compute_done =
      staged(core, db, Pipe::kVector, std::max(load_done, init_done), [&] {
        direct_reduce(core, op, out, in, g);
        maybe_scale(core, out, scale, n_out);
      });
  sl.in_free = compute_done;
  if (!db) core.pipe_barrier();
  const Event store_done =
      staged(core, db, Pipe::kMteOut, compute_done,
             [&] { core.mte().copy(gm_out, out, n_out); });
  sl.out_free = store_done;
  if (db) {
    core.note_tile(load_done, +1);
    core.note_tile(store_done, -1);
  }
}

// Proposed lowering (Listing 2): GM -> L1, Im2Col load L1 -> UB in the
// transposed (Kh, Kw, patches, C0) shape, then a full-mask reduction per
// (kh, kw) plane -- Kh*Kw instruction sequences total.
void im2col_tile(AiCore& core, bool db, FwdSlot& sl, VecOp op, Float16 init,
                 Float16 scale, Span<Float16> gm_in, Span<Float16> gm_out,
                 const TileGeom& g) {
  const std::int64_t n_in = g.in_rows * g.iw * kC0;
  auto l1 = sl.stage_in.sub(0, n_in);
  const Event load_done = staged(core, db, Pipe::kMteIn, sl.in_free,
                                 [&] { core.mte().copy(l1, gm_in, n_in); });

  Im2colArgs args;
  args.window = g.w;
  args.ih = g.in_rows;
  args.iw = g.iw;
  DV_CHECK_EQ(args.patches(), g.tile_patches());

  auto cols = sl.work.sub(0, args.output_elems());
  const Event scu_done =
      staged(core, db, Pipe::kScu, std::max(load_done, sl.work_free),
             [&] { core.scu().im2col_load(cols, l1, args); });
  sl.in_free = scu_done;

  const std::int64_t plane = args.padded_patches() * kC0;
  auto out = sl.out.sub(0, plane);
  const Event init_done = staged(core, db, Pipe::kVector, sl.out_free,
                                 [&] { core.vdup_flat(out, init, plane); });
  if (!db) core.pipe_barrier();
  const Event compute_done =
      staged(core, db, Pipe::kVector, std::max(scu_done, init_done), [&] {
        detail::reduce_planes(core, op, out, cols, g.w.kh * g.w.kw, plane);
        maybe_scale(core, out, scale, plane);
      });
  sl.work_free = compute_done;
  if (!db) core.pipe_barrier();
  const Event store_done =
      staged(core, db, Pipe::kMteOut, compute_done,
             [&] { core.mte().copy(gm_out, out, g.tile_patches() * kC0); });
  sl.out_free = store_done;
  if (db) {
    core.note_tile(load_done, +1);
    core.note_tile(store_done, -1);
  }
}

// "Maxpool with expansion" (Figure 8): the im2col shape is produced in UB
// by regular vector copies -- a separate transformation step after the
// plain load, paying both the extra instructions and the extra UB space.
void expansion_expand(AiCore& core, Span<Float16> cols, Span<Float16> in,
                      Float16 init, const TileGeom& g) {
  const std::int64_t pp = round_up(g.tile_patches(), kFractalRows);
  const std::int64_t plane = pp * kC0;
  for (std::int64_t kh = 0; kh < g.w.kh; ++kh) {
    for (std::int64_t kw = 0; kw < g.w.kw; ++kw) {
      const std::int64_t pbase = (kh * g.w.kw + kw) * plane;
      if (g.w.sw == 1) {
        // Contiguous rows: the same saturated row-strided lowering the
        // direct kernel uses at Sw == 1.
        detail::row_strided_copy(
            core, cols.drop_front(pbase), g.ow * kC0,
            in.drop_front((kh * g.iw + kw) * kC0), g.w.sh * g.iw * kC0,
            g.oh_t, g.ow * kC0);
        core.scalar_loop(1);
      } else {
        for (std::int64_t oh = 0; oh < g.oh_t; ++oh) {
          auto dst = cols.sub(pbase + oh * g.ow * kC0, g.ow * kC0);
          auto src = in.sub(((oh * g.w.sh + kh) * g.iw + kw) * kC0,
                            ((g.ow - 1) * g.w.sw + 1) * kC0);
          detail::strided16_copy(core, dst, kC0, src, g.w.sw * kC0, g.ow);
          core.scalar_loop(1);
        }
      }
      // Tail patch rows of this plane are never stored; initialize them so
      // the reduction reads defined values.
      if (pp > g.tile_patches()) {
        core.vdup_flat(cols.sub(pbase + g.tile_patches() * kC0,
                                (pp - g.tile_patches()) * kC0),
                       init, (pp - g.tile_patches()) * kC0);
      }
    }
  }
}

void expansion_tile(AiCore& core, bool db, FwdSlot& sl, VecOp op,
                    Float16 init, Float16 scale, Span<Float16> gm_in,
                    Span<Float16> gm_out, const TileGeom& g) {
  const std::int64_t n_in = g.in_rows * g.iw * kC0;
  const std::int64_t pp = round_up(g.tile_patches(), kFractalRows);
  const std::int64_t plane = pp * kC0;
  auto in = sl.stage_in.sub(0, n_in);
  auto cols = sl.work.sub(0, g.w.kh * g.w.kw * plane);
  auto out = sl.out.sub(0, plane);

  const Event load_done = staged(core, db, Pipe::kMteIn, sl.in_free,
                                 [&] { core.mte().copy(in, gm_in, n_in); });
  if (!db) core.pipe_barrier();
  const Event expand_done =
      staged(core, db, Pipe::kVector, std::max(load_done, sl.work_free),
             [&] { expansion_expand(core, cols, in, init, g); });
  sl.in_free = expand_done;
  const Event compute_done =
      staged(core, db, Pipe::kVector, std::max(expand_done, sl.out_free),
             [&] {
               core.vdup_flat(out, init, plane);
               detail::reduce_planes(core, op, out, cols, g.w.kh * g.w.kw,
                                     plane);
               maybe_scale(core, out, scale, plane);
             });
  sl.work_free = compute_done;
  if (!db) core.pipe_barrier();
  const Event store_done =
      staged(core, db, Pipe::kMteOut, compute_done,
             [&] { core.mte().copy(gm_out, out, g.tile_patches() * kC0); });
  sl.out_free = store_done;
  if (db) {
    core.note_tile(load_done, +1);
    core.note_tile(store_done, -1);
  }
}

// X-Y split (Lai et al., Figure 8b): reduce along the width into an
// (in_rows, Ow, C0) intermediate, then along the height. Fewer arithmetic
// operations than the direct form, but as a *TVM* lowering both stages are
// reductions: each output group gets one 16-lane instruction with the
// repeat parameter walking the reduction axis -- the X-Y split "does not
// overcome the scattered memory problems of pooling".
void xysplit_reduce(AiCore& core, VecOp op, Span<Float16> tmp,
                    Span<Float16> out, Span<Float16> in, const TileGeom& g) {
  // Stage 1: tmp[h, ow, :] = reduce over kw of in[h, ow*Sw + kw, :];
  // issued In_rows*Ow times, repeat over Kw.
  for (std::int64_t h = 0; h < g.in_rows; ++h) {
    for (std::int64_t ow = 0; ow < g.ow; ++ow) {
      VecConfig cfg;
      cfg.mask = VecMask::first_n(static_cast<int>(kC0));
      cfg.repeat = static_cast<int>(g.w.kw);
      cfg.dst_rep_stride = 0;
      cfg.src0_rep_stride = 0;
      cfg.src1_rep_stride = kC0;
      auto dst = tmp.sub((h * g.ow + ow) * kC0, kC0);
      auto src = in.sub((h * g.iw + ow * g.w.sw) * kC0, g.w.kw * kC0);
      core.vec().binary(op, dst, dst, src, cfg);
      core.scalar_loop(1);
    }
  }
  // Stage 2: out[oh, ow, :] = reduce over kh of tmp[oh*Sh + kh, ow, :];
  // issued Oh*Ow times, repeat over Kh with a row-sized stride.
  for (std::int64_t oh = 0; oh < g.oh_t; ++oh) {
    for (std::int64_t ow = 0; ow < g.ow; ++ow) {
      VecConfig cfg;
      cfg.mask = VecMask::first_n(static_cast<int>(kC0));
      cfg.repeat = static_cast<int>(g.w.kh);
      cfg.dst_rep_stride = 0;
      cfg.src0_rep_stride = 0;
      cfg.src1_rep_stride = g.ow * kC0;
      auto dst = out.sub((oh * g.ow + ow) * kC0, kC0);
      auto src = tmp.sub((oh * g.w.sh * g.ow + ow) * kC0,
                         ((g.w.kh - 1) * g.ow + 1) * kC0);
      core.vec().binary(op, dst, dst, src, cfg);
      core.scalar_loop(1);
    }
  }
}

void xysplit_tile(AiCore& core, bool db, FwdSlot& sl, VecOp op, Float16 init,
                  Float16 scale, Span<Float16> gm_in, Span<Float16> gm_out,
                  const TileGeom& g) {
  const std::int64_t n_in = g.in_rows * g.iw * kC0;
  const std::int64_t n_tmp = g.in_rows * g.ow * kC0;
  const std::int64_t n_out = g.tile_patches() * kC0;
  auto in = sl.stage_in.sub(0, n_in);
  auto tmp = sl.work.sub(0, n_tmp);
  auto out = sl.out.sub(0, n_out);

  const Event load_done = staged(core, db, Pipe::kMteIn, sl.in_free,
                                 [&] { core.mte().copy(in, gm_in, n_in); });
  const Event init_done =
      staged(core, db, Pipe::kVector, std::max(sl.work_free, sl.out_free),
             [&] {
               core.vdup_flat(tmp, init, n_tmp);
               core.vdup_flat(out, init, n_out);
             });
  if (!db) core.pipe_barrier();
  const Event compute_done =
      staged(core, db, Pipe::kVector, std::max(load_done, init_done), [&] {
        xysplit_reduce(core, op, tmp, out, in, g);
        maybe_scale(core, out, scale, n_out);
      });
  sl.in_free = compute_done;
  sl.work_free = compute_done;
  if (!db) core.pipe_barrier();
  const Event store_done =
      staged(core, db, Pipe::kMteOut, compute_done,
             [&] { core.mte().copy(gm_out, out, n_out); });
  sl.out_free = store_done;
  if (db) {
    core.note_tile(load_done, +1);
    core.note_tile(store_done, -1);
  }
}

// Allocates one slot's worst-case buffers for `impl`. `ih_t` / `tp_max` /
// `pp_max` are the interior-tile (largest) dimensions; tail tiles use
// prefixes of the same buffers.
FwdSlot alloc_slot(AiCore& core, PoolImpl impl, const Window2d& w,
                   std::int64_t ih_t, std::int64_t iw, std::int64_t ow,
                   std::int64_t tp_max, std::int64_t pp_max) {
  FwdSlot sl;
  switch (impl) {
    case PoolImpl::kDirect:
      sl.stage_in = core.ub().alloc<Float16>(ih_t * iw * kC0);
      sl.out = core.ub().alloc<Float16>(tp_max * kC0);
      break;
    case PoolImpl::kIm2col:
      sl.stage_in = core.l1().alloc<Float16>(ih_t * iw * kC0);
      sl.work = core.ub().alloc<Float16>(w.kh * w.kw * pp_max * kC0);
      sl.out = core.ub().alloc<Float16>(pp_max * kC0);
      break;
    case PoolImpl::kExpansion:
      sl.stage_in = core.ub().alloc<Float16>(ih_t * iw * kC0);
      sl.work = core.ub().alloc<Float16>(w.kh * w.kw * pp_max * kC0);
      sl.out = core.ub().alloc<Float16>(pp_max * kC0);
      break;
    case PoolImpl::kXYSplit:
      sl.stage_in = core.ub().alloc<Float16>(ih_t * iw * kC0);
      sl.work = core.ub().alloc<Float16>(ih_t * ow * kC0);
      sl.out = core.ub().alloc<Float16>(tp_max * kC0);
      break;
  }
  return sl;
}

}  // namespace

// Shared forward driver for MaxPool and AvgPool-style reductions; `op`
// and `init` select the reduction, `scale` (if not 1) is applied to the
// output tile before the store (AvgPool's 1/(Kh*Kw)).
Device::RunResult pooling_forward_impl(Device& dev, const SliceMap& in,
                                       const SliceMap& out, const Window2d& w,
                                       akg::PoolImpl impl, VecOp op,
                                       Float16 init, Float16 scale,
                                       const akg::PoolPlan* plan_in) {
  const std::int64_t ih = in.shape[2], iw = in.shape[3];
  const std::int64_t oh = w.out_h(ih), ow = w.out_w(iw);

  const bool db = dev.double_buffer();
  const std::int64_t t_p0 = detail::host_now_ns();
  const akg::PoolPlan plan =
      plan_in != nullptr
          ? *plan_in
          : akg::plan_fwd(impl, dev.arch(), w, ih, iw, /*with_mask=*/false,
                          db);
  DV_CHECK_GE(plan.oh_tile, 1) << "invalid precomputed plan";

  // Worst-case (interior) tile dimensions; every tile fits in a prefix.
  const std::int64_t ih_t =
      std::min(ih, (plan.oh_tile - 1) * w.sh + w.kh);
  const std::int64_t tp_max = plan.oh_tile * ow;
  const std::int64_t pp_max = round_up(tp_max, kFractalRows);
  const std::int64_t plan_ns = detail::host_now_ns() - t_p0;

  // One block per (N, C1) slice, matching the paper's parallelization
  // ("the outer loops are parallelized between the AI Cores"); H-tiles of
  // one slice run sequentially on the same core -- serially when the
  // double-buffer policy is off, in ub_slots-deep ping-pong when on.
  auto run = dev.run(in.slices(), [&](AiCore& core, std::int64_t b) {
    core.reset_scratch();
    std::vector<FwdSlot> slots;
    slots.reserve(static_cast<std::size_t>(plan.ub_slots));
    for (int s = 0; s < plan.ub_slots; ++s) {
      slots.push_back(alloc_slot(core, impl, w, ih_t, iw, ow, tp_max, pp_max));
    }
    const Span<Float16> in_b = in.slice(b), out_b = out.slice(b);

    for (std::int64_t t = 0; t < plan.num_h_tiles; ++t) {
      FwdSlot& sl = slots[static_cast<std::size_t>(t) % slots.size()];
      const HTile ht = akg::h_tile(w, ih, oh, plan.oh_tile, t);

      TileGeom g;
      g.w = w;
      g.w.pt = ht.pt_eff;
      g.w.pb = ht.pb_eff;
      g.in_rows = ht.in_rows();
      g.iw = iw;
      g.oh_t = ht.out_rows();
      g.ow = ow;

      auto gm_in = in_b.sub(ht.y0 * iw * kC0, g.in_rows * iw * kC0);
      auto gm_out = out_b.sub(ht.o0 * ow * kC0, g.tile_patches() * kC0);

      switch (impl) {
        case PoolImpl::kDirect:
          direct_tile(core, db, sl, op, init, scale, gm_in, gm_out, g);
          break;
        case PoolImpl::kIm2col:
          im2col_tile(core, db, sl, op, init, scale, gm_in, gm_out, g);
          break;
        case PoolImpl::kExpansion:
          expansion_tile(core, db, sl, op, init, scale, gm_in, gm_out, g);
          break;
        case PoolImpl::kXYSplit:
          xysplit_tile(core, db, sl, op, init, scale, gm_in, gm_out, g);
          break;
      }
    }
  });
  detail::add_plan_time(run, plan_ns);
  return run;
}

}  // namespace davinci::kernels
