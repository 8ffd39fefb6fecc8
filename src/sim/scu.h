// Storage Conversion Unit: the Im2Col and Col2Im instructions
// (Sections III-C and III-D of the paper).
//
// Im2Col is a *load* instruction: while a tile moves from L1 to L0A, L0B or
// the Unified Buffer, the SCU rearranges it into the unrolled-convolution
// layout, one 16-patch x C0 fractal at a time. Because the transformation
// happens in flight, the duplicated elements of overlapping patches only
// occupy the target buffer -- no temporaries.
//
// The simulator implements the repeat-mode-1 transposed iteration order
// [c1, (xk, yk), (x, y)] that the paper's pooling kernels use: for each
// kernel-relative position (xk, yk), all patch fractals are emitted
// consecutively, yielding the output layout (Kh, Kw, Oh*Ow^, C0) per C1
// slice, where Oh*Ow^ is the patch count rounded up to whole fractals
// (tail patch rows are zero-filled). Viewed with the caller's N/C1 loop
// this is the paper's (N, C1, Kh, Kw, Oh, Ow, C0) tensor.
//
// Col2Im is the backward operator: a UB -> UB instruction that reads a
// fractal, *adds* it into the positions its patches came from (summing
// overlaps -- Figure 6), and stores back. The output region must be
// zero-initialized by the kernel first, exactly as the hardware requires.
//
// Every instruction group is booked once in the core's Ledger
// (sim/ledger.h), on the SCU pipe.
#pragma once

#include <cstdint>

#include "arch/arch_config.h"
#include "arch/cost_model.h"
#include "common/align.h"
#include "common/float16.h"
#include "sim/ledger.h"
#include "sim/scratch.h"
#include "tensor/fractal.h"
#include "tensor/pool_geometry.h"

namespace davinci {

struct Im2colArgs {
  Window2d window;
  std::int64_t ih = 0;  // input tile height (unpadded)
  std::int64_t iw = 0;  // input tile width (unpadded)

  void validate() const {
    window.validate();
    DV_CHECK_GE(ih, 1);
    DV_CHECK_GE(iw, 1);
  }

  std::int64_t oh() const { return window.out_h(ih); }
  std::int64_t ow() const { return window.out_w(iw); }
  std::int64_t patches() const { return oh() * ow(); }
  // Number of 16-patch fractal rows per kernel position.
  std::int64_t patch_fractals() const {
    return ceil_div(patches(), kFractalRows);
  }
  // Patch count rounded up to whole fractals.
  std::int64_t padded_patches() const {
    return patch_fractals() * kFractalRows;
  }
  // Elements of the im2col output per C1 slice:
  // Kh * Kw * padded_patches * C0.
  std::int64_t output_elems() const {
    return window.kh * window.kw * padded_patches() * kC0;
  }
  std::int64_t input_elems() const { return ih * iw * kC0; }
};

class Scu {
 public:
  Scu(const ArchConfig& arch, const CostModel& cost, Ledger* ledger)
      : arch_(arch), cost_(cost), ledger_(ledger) {}

  // Im2Col load, repeat mode 1, transposed order. `src` is an L1 tile of
  // (ih, iw, C0) contiguous elements (one N/C1 slice); `dst` receives
  // (Kh, Kw, padded_patches, C0) and must live in UB, L0A or L0B.
  // Out-of-image positions (zero padding) and tail patch rows load zeros.
  void im2col_load(Span<Float16> dst, Span<Float16> src,
                   const Im2colArgs& args);

  // Im2Col load, repeat mode 0: iteration order [(x, y), (xk, yk)] -- the
  // order of Figure 5, where the fractals of one 16-patch group for all
  // kernel positions land side by side. `dst` receives
  // (padded_patches/16, Kh, Kw, 16, C0): fractal (m, k) in m-major order,
  // the layout the Cube Unit's A operand uses for convolution. One
  // instruction covers up to max_repeat (xk, yk) steps of one patch group.
  void im2col_load_mode0(Span<Float16> dst, Span<Float16> src,
                         const Im2colArgs& args);

  // Col2Im: accumulates `src` (the im2col-shaped gradient tile,
  // (Kh, Kw, padded_patches, C0)) into `out` ((ih, iw, C0)), summing
  // overlapping patches. Both spans must be in the Unified Buffer and the
  // caller must have zero-initialized `out`. Contributions that fall into
  // the virtual zero-padding border are dropped.
  void col2im(Span<Float16> out, Span<Float16> src, const Im2colArgs& args);

 private:
  // Fault hook shared by all three instructions: the produced region may
  // take a landing bit flip (it just arrived in a scratch buffer) or a
  // site-specific fractal corruption.
  void maybe_fault_result(Span<Float16> dst, std::int64_t elems);

  const ArchConfig& arch_;
  const CostModel& cost_;
  Ledger* ledger_;
};

}  // namespace davinci
