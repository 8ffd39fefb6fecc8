// The Cube Unit: a systolic matrix multiplier consuming 4096-bit
// data-fractals (16 x C0 fp16 matrices) from L0A and L0B and accumulating
// fp32 partial sums in L0C (Section III-A). It multiplies two fractals per
// clock; the simulator charges one cycle per 16x16x16 fractal MAC.
//
// Pooling cannot use this unit (it has no weights and max() is not a MAC),
// which is exactly the paper's motivation for routing pooling through the
// Vector Unit with an improved layout. The Cube Unit is implemented here
// as the substrate that the Im2Col instruction was originally designed to
// feed -- exercised by the conv2d kernel and the A3 ablation bench.
#pragma once

#include <cstdint>

#include "arch/arch_config.h"
#include "arch/cost_model.h"
#include "common/float16.h"
#include "sim/scratch.h"
#include "sim/pipe_schedule.h"
#include "sim/stats.h"
#include "sim/trace.h"

namespace davinci {

class CubeUnit {
 public:
  CubeUnit(const ArchConfig& arch, const CostModel& cost, CycleStats* stats,
           Profile* profile, Trace* trace = nullptr,
           PipeScheduler* sched = nullptr)
      : arch_(arch), cost_(cost), stats_(stats), profile_(profile),
        trace_(trace), sched_(sched) {}

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
  CycleStats* stats_;
  Profile* profile_;
  Trace* trace_;
  PipeScheduler* sched_ = nullptr;
};

}  // namespace davinci
