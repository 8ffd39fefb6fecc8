#include "akg/tiling.h"

#include "common/check.h"

namespace davinci::akg {

const char* to_string(PoolImpl impl) {
  switch (impl) {
    case PoolImpl::kDirect: return "direct";
    case PoolImpl::kIm2col: return "im2col";
    case PoolImpl::kExpansion: return "expansion";
    case PoolImpl::kXYSplit: return "xysplit";
  }
  return "?";
}

namespace {

constexpr std::int64_t kElem = 2;  // sizeof(Float16)

// Mirrors ScratchBuffer's 32-byte allocation alignment.
std::int64_t aligned(std::int64_t elems) {
  return round_up(elems * kElem, 32);
}

struct FwdDims {
  std::int64_t ih_t, ow, tp, pp_t;
};

FwdDims fwd_dims(const Window2d& w, std::int64_t oh_tile, std::int64_t iw) {
  FwdDims d;
  d.ih_t = (oh_tile - 1) * w.sh + w.kh;  // interior tile, worst case
  d.ow = w.out_w(iw);
  d.tp = oh_tile * d.ow;
  d.pp_t = round_up(d.tp, kFractalRows);
  return d;
}

}  // namespace

std::int64_t ub_bytes_fwd(PoolImpl impl, const Window2d& w,
                          std::int64_t oh_tile, std::int64_t iw,
                          bool with_mask) {
  DV_CHECK_GE(oh_tile, 1);
  const FwdDims d = fwd_dims(w, oh_tile, iw);
  const std::int64_t in_b = aligned(d.ih_t * iw * kC0);
  const std::int64_t cols_b = aligned(w.kh * w.kw * d.pp_t * kC0);
  const std::int64_t out_flat_b = aligned(d.tp * kC0);
  const std::int64_t out_pad_b = aligned(d.pp_t * kC0);
  const std::int64_t tmp_b = aligned(d.ih_t * d.ow * kC0);
  const std::int64_t mask_b = with_mask ? cols_b : 0;

  switch (impl) {
    case PoolImpl::kDirect:
      // Input and output tiles live in UB; the direct mask variant also
      // produces the im2col-shaped Argmax mask there.
      return in_b + out_flat_b + mask_b;
    case PoolImpl::kIm2col:
      // The input slice stays in L1; UB holds the im2col-shaped tile and
      // the (fractal-padded) output.
      return cols_b + out_pad_b + mask_b;
    case PoolImpl::kExpansion:
      // The transformation happens *inside* UB, so input, expanded form
      // and output coexist -- the footprint penalty the paper notes.
      return in_b + cols_b + out_pad_b + mask_b;
    case PoolImpl::kXYSplit:
      // Input, the (Ih, Ow, C0) intermediate, and the output. ("In TVM,
      // all computations generate a new tensor, and thus the in-place
      // approach is not possible.")
      return in_b + tmp_b + out_flat_b + mask_b;
  }
  return 0;
}

std::int64_t ub_bytes_bwd(std::int64_t oh_tile, std::int64_t iw,
                          const Window2d& w) {
  DV_CHECK_GE(oh_tile, 1);
  const FwdDims d = fwd_dims(w, oh_tile, iw);
  const std::int64_t mask_b = aligned(w.kh * w.kw * d.pp_t * kC0);
  const std::int64_t grad_b = aligned(d.tp * kC0);
  const std::int64_t out_b = aligned(d.ih_t * iw * kC0);
  const std::int64_t seam_rows = w.kh > w.sh ? (w.kh - w.sh) : 0;
  const std::int64_t seam_b = aligned(seam_rows * iw * kC0);
  return mask_b + grad_b + out_b + seam_b;
}

namespace {

template <typename FitsFn>
PoolPlan plan_common(std::int64_t oh, FitsFn&& fits, const char* what) {
  DV_CHECK(fits(std::int64_t{1}))
      << what << ": a single output row does not fit the Unified Buffer";
  // Largest fitting tile by binary search (footprint is monotone in
  // oh_tile).
  std::int64_t lo = 1, hi = oh;
  while (lo < hi) {
    const std::int64_t mid = lo + (hi - lo + 1) / 2;
    if (fits(mid)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  PoolPlan plan;
  plan.oh_tile = lo;
  plan.num_h_tiles = ceil_div(oh, lo);
  return plan;
}

}  // namespace

namespace {

// Shared slot-upgrade policy: keep the single-buffer tile if two slots of
// it fit; with `allow_retile`, otherwise re-search with the doubled
// footprint; otherwise stay single-buffered. Overlap only pays off across
// tiles, so an untiled plan keeps one slot.
//
// Re-tiling moves the tile boundaries, which is fine for the forward
// kernels (each output element is computed entirely within one tile, in
// the same order regardless of the split) but NOT for the backward
// merges: input cells near a seam accumulate contributions from both
// sides, so a different oh_tile changes the fp16 accumulation order and
// the output bits. Backward plans therefore never re-tile -- they take a
// second slot only when the serial tile fits twice, keeping outputs
// bit-identical to the single-buffer schedule.
template <typename FitsFn>
PoolPlan plan_with_slots(std::int64_t oh, FitsFn&& fits, bool double_buffer,
                         bool allow_retile, const char* what) {
  PoolPlan plan =
      plan_common(oh, [&](std::int64_t t) { return fits(t, 1); }, what);
  if (!double_buffer || plan.num_h_tiles <= 1) return plan;
  if (fits(plan.oh_tile, 2)) {
    plan.ub_slots = 2;
  } else if (allow_retile && fits(std::int64_t{1}, 2)) {
    plan = plan_common(oh, [&](std::int64_t t) { return fits(t, 2); }, what);
    plan.ub_slots = 2;
  }
  return plan;
}

}  // namespace

PoolPlan plan_fwd(PoolImpl impl, const ArchConfig& arch, const Window2d& w,
                  std::int64_t ih, std::int64_t iw, bool with_mask,
                  bool double_buffer) {
  w.validate();
  const std::int64_t oh = w.out_h(ih);
  auto fits = [&](std::int64_t oh_tile, int slots) {
    if (slots * ub_bytes_fwd(impl, w, oh_tile, iw, with_mask) >
        arch.ub_bytes) {
      return false;
    }
    if (impl == PoolImpl::kIm2col) {
      // The Im2Col source slice must fit L1 (Figure 4 path 2 -> 8); in
      // ping-pong mode both slots' slices live there at once.
      const std::int64_t ih_t = (oh_tile - 1) * w.sh + w.kh;
      if (slots * ih_t * iw * kC0 * 2 > arch.l1_bytes) return false;
    }
    return true;
  };
  return plan_with_slots(oh, fits, double_buffer, /*allow_retile=*/true,
                         to_string(impl));
}

PoolPlan plan_bwd(const ArchConfig& arch, const Window2d& w, std::int64_t ih,
                  std::int64_t iw, bool double_buffer) {
  w.validate();
  const std::int64_t oh = w.out_h(ih);
  auto fits = [&](std::int64_t oh_tile, int slots) {
    return slots * ub_bytes_bwd(oh_tile, iw, w) <= arch.ub_bytes;
  };
  return plan_with_slots(oh, fits, double_buffer, /*allow_retile=*/false,
                         "backward");
}

HTile h_tile(const Window2d& w, std::int64_t ih, std::int64_t oh,
             std::int64_t oh_tile, std::int64_t t) {
  DV_CHECK_GE(t, 0);
  HTile tile;
  tile.o0 = t * oh_tile;
  DV_CHECK_LT(tile.o0, oh);
  tile.o1 = tile.o0 + oh_tile < oh ? tile.o0 + oh_tile : oh;
  const std::int64_t y_start = tile.o0 * w.sh - w.pt;          // virtual
  const std::int64_t y_end = (tile.o1 - 1) * w.sh + w.kh - w.pt;  // virtual
  tile.y0 = y_start < 0 ? 0 : y_start;
  tile.y1 = y_end > ih ? ih : y_end;
  tile.pt_eff = y_start < 0 ? -y_start : 0;
  tile.pb_eff = y_end > ih ? y_end - ih : 0;
  return tile;
}

std::int64_t tiling_threshold(const ArchConfig& arch, const Window2d& w,
                              bool with_xysplit) {
  w.validate();
  // Paper (Section VI-B): "The input's height and width increase in steps
  // of two until the tiling threshold is reached, where this threshold is
  // the maximum size before tiling is required."
  std::int64_t best = 0;
  for (std::int64_t h = w.kh + w.kw; ; h += 2) {
    const std::int64_t oh = w.out_h(h);
    auto fits = [&](PoolImpl impl) {
      return ub_bytes_fwd(impl, w, oh, h, /*with_mask=*/false) <=
             arch.ub_bytes;
    };
    bool ok = fits(PoolImpl::kDirect) && fits(PoolImpl::kIm2col) &&
              fits(PoolImpl::kExpansion) && h * h * kC0 * 2 <= arch.l1_bytes;
    if (ok && with_xysplit) ok = fits(PoolImpl::kXYSplit);
    if (!ok) break;
    best = h;
  }
  DV_CHECK_GT(best, 0) << "no input size fits untiled";
  return best;
}

PoolImpl select_fwd_impl(const Window2d& w) {
  if (w.has_padding()) return PoolImpl::kIm2col;
  return w.sw == 1 ? PoolImpl::kDirect : PoolImpl::kIm2col;
}

}  // namespace davinci::akg
