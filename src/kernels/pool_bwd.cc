// Pooling backward (Sections V-B and V-C / Figure 7c): one tile pipeline
// for MaxPool and AvgPool.
//
// Backward builds Kh*Kw contribution planes in the Im2Col shape -- what
// each kernel position sends back to the input -- and merges them into
// the (Ih, Iw, C0) input gradient, which is exactly the Col2im operation.
// The two kinds differ only in where the planes come from:
//
//  * MaxPool: the Argmax mask planes (N, C1, Kh, Kw, PP, C0) are
//    MTE-loaded next to the gradient tile and multiplied by it, one
//    full-mask vmul per (kh, kw) plane, which "works well" per the paper.
//  * AvgPool: "the equivalent mask for Avgpool contains 1 in all its
//    positions", so the gradient is scaled by 1/(Kh*Kw) once and is itself
//    every plane. The Col2Im merge needs the planes materialized (vector
//    copies); the vadd merge reads the scaled gradient in place, with
//    plane stride 0.
//
// The merge step:
//
//  * kVadd: per-patch scatter adds into the output tile, 16 of 128 lanes,
//    no repetition -- the baseline's "very poor usage of the Vector Unit".
//  * kCol2im: the Col2Im instruction loads, accumulates and stores one
//    16xC0 fractal at a time and repeats over all patch fractals of a
//    (kh, kw) plane, so only Kh*Kw instruction sequences are issued.
//
// Scheduling: one block per (N, C1) slice ("tiling the computation on
// C1"); slices larger than the Unified Buffer are processed in H-tiles
// sequentially on the same core, with the seam rows (Kh - Sh rows shared
// between adjacent tiles when windows overlap) accumulated through a
// read-modify-write of global memory. Phases are issued through
// detail::staged: with the device's double-buffer policy on, tile t+1's
// loads overlap tile t's multiply/merge, and the seam read-modify-write
// carries an explicit cross-tile dependency on the previous tile's store
// (the RAW through global memory that makes the overlap safe).
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
using detail::staged;
using Event = PipeScheduler::Event;

// One ping-pong slot of the backward pipeline (see FwdSlot in
// maxpool_fwd.cc for the event convention).
struct BwdSlot {
  Span<Float16> grad;    // gradient tile (AvgPool: scaled in place)
  Span<Float16> planes;  // Kh*Kw contribution planes (unused in place)
  Span<Float16> out;     // (in_rows, Iw, C0) output tile
  Span<Float16> prev;    // seam rows re-read from GM
  Event grad_free = 0;
  Event planes_free = 0;
  Event out_free = 0;
  Event prev_free = 0;
};

}  // namespace

Device::RunResult pooling_backward_impl(Device& dev, const SliceMap* mask,
                                        const SliceMap& grad,
                                        const SliceMap& grad_in,
                                        const Window2d& w, MergeImpl merge,
                                        const akg::PoolPlan* plan_in) {
  const std::int64_t ih = grad_in.shape[2], iw = grad_in.shape[3];
  const std::int64_t oh = w.out_h(ih), ow = w.out_w(iw);
  const std::int64_t ppg = round_up(oh * ow, kFractalRows);
  const std::int64_t kk = w.kh * w.kw;
  const Float16 inv(1.0f / static_cast<float>(kk));
  // AvgPool's vadd merge reads the scaled gradient tile as every plane.
  const bool in_place = mask == nullptr && merge == MergeImpl::kVadd;

  const bool db = dev.double_buffer();
  const std::int64_t t_p0 = detail::host_now_ns();
  const akg::PoolPlan plan =
      plan_in != nullptr ? *plan_in : akg::plan_bwd(dev.arch(), w, ih, iw, db);
  DV_CHECK_GE(plan.oh_tile, 1) << "invalid precomputed plan";
  const std::int64_t seam = w.kh > w.sh ? w.kh - w.sh : 0;

  // Worst-case (interior) tile dimensions for the slot buffers.
  const std::int64_t in_rows_max =
      std::min(ih, (plan.oh_tile - 1) * w.sh + w.kh);
  const std::int64_t tp_max = plan.oh_tile * ow;
  const std::int64_t pp_max = round_up(tp_max, kFractalRows);
  const std::int64_t plan_ns = detail::host_now_ns() - t_p0;

  // One block per (N, C1) slice; block index == image * C1 + channel block.
  auto run = dev.run(grad.slices(), [&](AiCore& core, std::int64_t b) {
    core.reset_scratch();
    const Span<Float16> grad_b = grad.slice(b), grad_in_b = grad_in.slice(b);
    std::vector<BwdSlot> slots(static_cast<std::size_t>(plan.ub_slots));
    for (auto& sl : slots) {
      sl.grad = core.ub().alloc<Float16>(tp_max * kC0);
      if (!in_place) sl.planes = core.ub().alloc<Float16>(kk * pp_max * kC0);
      sl.out = core.ub().alloc<Float16>(in_rows_max * iw * kC0);
      if (seam > 0) sl.prev = core.ub().alloc<Float16>(seam * iw * kC0);
    }
    Event last_store = 0;  // previous tile's GM store (seam RAW)

    for (std::int64_t t = 0; t < plan.num_h_tiles; ++t) {
      BwdSlot& sl = slots[static_cast<std::size_t>(t) % slots.size()];
      const HTile ht = akg::h_tile(w, ih, oh, plan.oh_tile, t);
      Window2d wt = w;  // per-tile window (effective paddings)
      wt.pt = ht.pt_eff;
      wt.pb = ht.pb_eff;
      const std::int64_t in_rows = ht.in_rows();
      const std::int64_t tp = ht.out_rows() * ow;
      const std::int64_t plane = round_up(tp, kFractalRows) * kC0;

      auto gm_grad = grad_b.sub(ht.o0 * ow * kC0, tp * kC0);
      auto gm_out_tile =
          grad_in_b.sub(ht.y0 * iw * kC0, in_rows * iw * kC0);
      auto grad_t = sl.grad.sub(0, tp * kC0);
      auto planes = in_place ? grad_t : sl.planes.sub(0, kk * plane);
      auto out = sl.out.sub(0, in_rows * iw * kC0);

      // Load the gradient tile; MaxPool loads its mask planes beside it.
      const Event load_done = staged(
          core, db, Pipe::kMteIn,
          mask != nullptr ? std::max(sl.grad_free, sl.planes_free)
                          : sl.grad_free,
          [&] {
            core.mte().copy(grad_t, gm_grad, tp * kC0);
            if (mask == nullptr) return;
            auto gm_mask = mask->slice(b).sub(ht.o0 * ow * kC0,
                                              ((kk - 1) * ppg + tp) * kC0);
            core.mte().copy_2d(planes, plane, gm_mask, ppg * kC0, kk,
                               tp * kC0);
          });
      if (!db) core.pipe_barrier();
      // MaxPool: mask plane x gradient tile in place, full mask (Listing
      // 3's computation). AvgPool: the gradient x 1/(Kh*Kw), once.
      const Event grad_done =
          staged(core, db, Pipe::kVector, load_done, [&] {
            if (mask == nullptr) {
              core.vmuls_flat(grad_t, grad_t, inv, tp * kC0);
              return;
            }
            for (std::int64_t k = 0; k < kk; ++k) {
              core.vbin_flat(VecOp::kMul, planes.sub(k * plane, tp * kC0),
                             planes.sub(k * plane, tp * kC0), grad_t,
                             tp * kC0);
              core.scalar_loop(1);
            }
          });
      const Event init_done =
          staged(core, db, Pipe::kVector, sl.out_free, [&] {
            core.vdup_flat(out, Float16(), in_rows * iw * kC0);
          });
      if (!db) core.pipe_barrier();

      Event planes_done = grad_done;
      if (mask == nullptr && !in_place) {
        // AvgPool's Col2Im merge: the all-ones mask times the scaled
        // gradient, materialized once per kernel position.
        planes_done = staged(
            core, db, Pipe::kVector, std::max(grad_done, sl.planes_free),
            [&] {
              for (std::int64_t k = 0; k < kk; ++k) {
                core.vadds_flat(planes.sub(k * plane, tp * kC0), grad_t,
                                Float16(), tp * kC0);
                core.scalar_loop(1);
              }
            });
        if (!db) core.pipe_barrier();
      }
      if (!in_place) sl.grad_free = planes_done;

      Event merge_done;
      if (merge == MergeImpl::kCol2im) {
        Im2colArgs args;
        args.window = wt;
        args.ih = in_rows;
        args.iw = iw;
        DV_CHECK_EQ(args.patches(), tp);
        merge_done =
            staged(core, db, Pipe::kScu, std::max(planes_done, init_done),
                   [&] { core.scu().col2im(out, planes, args); });
      } else {
        // Baseline merge: one 16-lane vadd per (kh, kw, patch), no
        // repetition (Section V-B).
        const std::int64_t stride = in_place ? 0 : plane;
        merge_done = staged(
            core, db, Pipe::kVector, std::max(planes_done, init_done), [&] {
              for (std::int64_t kh = 0; kh < w.kh; ++kh) {
                for (std::int64_t kw = 0; kw < w.kw; ++kw) {
                  const std::int64_t pbase = (kh * w.kw + kw) * stride;
                  for (std::int64_t p = 0; p < tp; ++p) {
                    const std::int64_t y = (p / ow) * w.sh + kh - wt.pt;
                    const std::int64_t x = (p % ow) * w.sw + kw - wt.pl;
                    if (y < 0 || y >= in_rows || x < 0 || x >= iw) continue;
                    VecConfig cfg;
                    cfg.mask = VecMask::first_n(static_cast<int>(kC0));
                    auto dst = out.sub((y * iw + x) * kC0, kC0);
                    core.vec().binary(VecOp::kAdd, dst, dst,
                                      planes.sub(pbase + p * kC0, kC0), cfg);
                    core.scalar_loop(1);
                  }
                }
              }
            });
      }
      (in_place ? sl.grad_free : sl.planes_free) = merge_done;

      // Seam accumulation: re-read the rows this tile shares with the
      // previous one and add them in -- a RAW through GM, hence the
      // dependency on the previous tile's store.
      const std::int64_t seam_rows =
          t > 0 ? (seam < in_rows ? seam : in_rows) : 0;
      Event ready_to_store = merge_done;
      if (seam_rows > 0) {
        const std::int64_t n_seam = seam_rows * iw * kC0;
        auto prev = sl.prev.sub(0, n_seam);
        const Event prev_done =
            staged(core, db, Pipe::kMteIn,
                   std::max(sl.prev_free, last_store),
                   [&] { core.mte().copy(prev, gm_out_tile, n_seam); });
        if (!db) core.pipe_barrier();
        const Event add_done =
            staged(core, db, Pipe::kVector,
                   std::max(prev_done, merge_done), [&] {
                     core.vbin_flat(VecOp::kAdd, out, out, prev, n_seam);
                   });
        sl.prev_free = add_done;
        ready_to_store = add_done;
      }
      if (!db) core.pipe_barrier();
      const Event store_done =
          staged(core, db, Pipe::kMteOut, ready_to_store, [&] {
            core.mte().copy(gm_out_tile, out, in_rows * iw * kC0);
          });
      sl.out_free = store_done;
      last_store = store_done;
      if (db) {
        core.note_tile(load_done, +1);
        core.note_tile(store_done, -1);
      }
    }
  });

  detail::add_plan_time(run, plan_ns);
  return run;
}

}  // namespace davinci::kernels
