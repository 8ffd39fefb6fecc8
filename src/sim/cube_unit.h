// The Cube Unit: a systolic matrix multiplier consuming 4096-bit
// data-fractals (16 x C0 fp16 matrices) from L0A and L0B and accumulating
// fp32 partial sums in L0C (Section III-A). It multiplies two fractals per
// clock; the simulator charges one cycle per 16x16x16 fractal MAC.
//
// Pooling cannot use this unit (it has no weights and max() is not a MAC),
// which is exactly the paper's motivation for routing pooling through the
// Vector Unit with an improved layout. The Cube Unit is implemented here
// as the substrate that the Im2Col instruction was originally designed to
// feed -- exercised by the conv2d kernel and the A3 ablation bench. Every
// mmad is booked once in the core's Ledger (sim/ledger.h).
#pragma once

#include <cstdint>

#include "arch/arch_config.h"
#include "arch/cost_model.h"
#include "common/float16.h"
#include "sim/ledger.h"
#include "sim/scratch.h"

namespace davinci {

class CubeUnit {
 public:
  CubeUnit(const ArchConfig& arch, const CostModel& cost, Ledger* ledger)
      : arch_(arch), cost_(cost), ledger_(ledger) {}

  // C (+)= A x B on fractal-tiled operands:
  //   A: L0A, (m_frac x k_frac) fractals, each 16x16 row-major
  //      (row = output row, col = reduction element);
  //   B: L0B, (k_frac x n_frac) fractals, each 16x16 row-major
  //      (row = reduction element, col = output column);
  //   C: L0C, (m_frac x n_frac) fp32 fractals, row-major within fractal.
  // `accumulate` false zeroes C first (hardware init bit).
  // `a_k_major` selects the k-major fractal order (fractal (kb, mb) at
  // index kb * m_frac + mb) that the transposed Im2Col load produces.
  void mmad(Span<float> l0c, Span<Float16> l0a, Span<Float16> l0b,
            std::int64_t m_frac, std::int64_t k_frac, std::int64_t n_frac,
            bool accumulate, bool a_k_major = false);

 private:
  const ArchConfig& arch_;
  const CostModel& cost_;
  Ledger* ledger_;
};

}  // namespace davinci
