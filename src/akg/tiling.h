// The scheduling decisions AKG/TVM make for the pooling kernels
// (Section IV of the paper), implemented as an explicit planner:
//
//  * computations are tiled on C1 so one (Ih, Iw, C0) slice is processed
//    per AI Core at a time ("this computation is divided in the C1
//    dimension", Section V-A);
//  * when a slice exceeds the Unified Buffer, the planner further tiles
//    along the output height, with halo rows reloaded at tile seams;
//  * the per-implementation UB requirement determines the Figure 8
//    "tiling threshold": the largest square input that still fits without
//    H-tiling.
#pragma once

#include <cstdint>

#include "arch/arch_config.h"
#include "common/align.h"
#include "tensor/fractal.h"
#include "tensor/pool_geometry.h"

namespace davinci::akg {

// The pooling implementations of Section V / Figure 8.
enum class PoolImpl : std::uint8_t {
  kDirect,     // standard TVM lowering (Listing 1)
  kIm2col,     // Im2Col-load based (Listing 2)
  kExpansion,  // im2col shape built with regular vector instructions
  kXYSplit,    // width-then-height reduction (Lai et al.)
};

const char* to_string(PoolImpl impl);

// One horizontal slice of the output and the input rows it needs.
struct HTile {
  std::int64_t o0 = 0, o1 = 0;  // output rows [o0, o1)
  std::int64_t y0 = 0, y1 = 0;  // input rows [y0, y1) (unpadded, clamped)
  std::int64_t pt_eff = 0;      // virtual top padding seen by this tile
  std::int64_t pb_eff = 0;      // virtual bottom padding seen by this tile

  std::int64_t out_rows() const { return o1 - o0; }
  std::int64_t in_rows() const { return y1 - y0; }
};

// Unified-Buffer bytes an implementation needs for one forward tile of
// `oh_tile` output rows over a width-`iw` input (fp16 elements, 32-byte
// allocation alignment). `with_mask` adds the Argmax-mask buffer.
std::int64_t ub_bytes_fwd(PoolImpl impl, const Window2d& w,
                          std::int64_t oh_tile, std::int64_t iw,
                          bool with_mask);

// UB bytes for one backward tile (mask + gradient + output slice, plus
// the row reloaded for the seam accumulation).
std::int64_t ub_bytes_bwd(std::int64_t oh_tile, std::int64_t iw,
                          const Window2d& w);

struct PoolPlan {
  std::int64_t oh_tile = 0;    // output rows per tile
  std::int64_t num_h_tiles = 0;
  int ub_slots = 1;            // UB tile slots: 1 = single, 2 = ping-pong
  bool tiled() const { return num_h_tiles > 1; }
  bool double_buffered() const { return ub_slots > 1; }

  friend bool operator==(const PoolPlan&, const PoolPlan&) = default;
};

// Chooses the largest oh_tile whose UB footprint fits. Throws if even a
// single output row does not fit (the workload is then out of scope for
// this schedule, as in the paper's Figure 8 cut-off).
//
// With `double_buffer` and more than one H tile, the planner tries to
// carve TWO tile slots out of the same UB budget (and, for kIm2col, two
// L1 input slices) so consecutive tiles can overlap in ping-pong mode:
// first at the single-buffer oh_tile, then -- if that doubles past the
// budget -- at the largest oh_tile whose doubled footprint fits. When
// even one doubled output row does not fit, the plan falls back to a
// single slot (ub_slots == 1) and the kernel runs single-buffered.
//
// plan_bwd never shrinks oh_tile for the second slot: the backward merges
// accumulate across tile seams, so moving the seam would change the fp16
// accumulation order and the output bits relative to the single-buffer
// schedule. It takes two slots only when the serial tile fits twice.
PoolPlan plan_fwd(PoolImpl impl, const ArchConfig& arch, const Window2d& w,
                  std::int64_t ih, std::int64_t iw, bool with_mask,
                  bool double_buffer = false);
PoolPlan plan_bwd(const ArchConfig& arch, const Window2d& w, std::int64_t ih,
                  std::int64_t iw, bool double_buffer = false);

// The t-th horizontal tile of a plan (forward and backward use the same
// geometry).
HTile h_tile(const Window2d& w, std::int64_t ih, std::int64_t oh,
             std::int64_t oh_tile, std::int64_t t);

// Figure 8's x-axis limit: the largest square input H = W (stepping by 2
// like the paper) that every implementation in the standard Figure 8 set
// can process without H-tiling. `with_xysplit` includes the X-Y split's
// temporary buffer in the constraint (Figure 8b).
std::int64_t tiling_threshold(const ArchConfig& arch, const Window2d& w,
                              bool with_xysplit = false);

// The auto-scheduler decision the paper's evaluation dictates: the
// Im2col-based lowering wins everywhere except stride width 1, where the
// direct lowering already saturates the vector mask over contiguous rows
// and pays no transformation ("the proposed acceleration approach
// achieved improved performance for all but (1,1) stride", Section VIII).
// Padding forces kIm2col regardless (the direct kernels do not pad).
PoolImpl select_fwd_impl(const Window2d& w);

}  // namespace davinci::akg
