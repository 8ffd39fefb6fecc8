// Instruction, occupancy and traffic counts, per AI Core.
//
// The paper's only obtainable metric on the Ascend 910 was the hardware
// cycle counter; the simulator's equivalent is the device makespan
// (Device::RunResult::device_cycles). Cycles live in one place, the
// core's PipeScheduler (sim/pipe_schedule.h): its busy/wait/flag buckets
// break the makespan down by pipe and its serial() is the strictly serial
// cycle count. Profile and CoreCounts count instructions, occupied slots,
// bytes and Cube MACs -- the extra observability the benches use to
// explain *why* an implementation wins (issue counts and mask saturation,
// the quantities Section V reasons about). All of them are booked through
// the core's Ledger (sim/ledger.h). Each count is declared once.
#pragma once

#include <cstdint>
#include <string>

#include "sim/trace.h"

namespace davinci {

// Occupancy ledger of one execution unit: how full each issue was relative
// to what the unit could have done in the same issue. The slot currency is
// unit-specific (see Profile below); the ratio slots_used / slots_capacity
// is always "fraction of the unit's capacity doing useful work".
struct UnitOccupancy {
  std::int64_t instrs = 0;           // instructions issued
  std::int64_t slots_used = 0;       // occupied slots, summed over instrs
  std::int64_t slots_capacity = 0;   // available slots, summed over instrs
  std::int64_t saturated_instrs = 0; // instrs issued at full occupancy

  // Mean fraction of the unit's slots doing useful work (0 when idle).
  double occupancy() const {
    if (slots_capacity == 0) return 0.0;
    return static_cast<double>(slots_used) /
           static_cast<double>(slots_capacity);
  }

  // Fraction of instructions issued at full occupancy (0 when idle).
  double saturation() const {
    if (instrs == 0) return 0.0;
    return static_cast<double>(saturated_instrs) /
           static_cast<double>(instrs);
  }

  UnitOccupancy& operator+=(const UnitOccupancy& o) {
    instrs += o.instrs;
    slots_used += o.slots_used;
    slots_capacity += o.slots_capacity;
    saturated_instrs += o.saturated_instrs;
    return *this;
  }
};

// Per-instruction utilization breakdown of one AI Core (merged over cores
// in Device::RunResult). This is the paper's Section V evidence in counter
// form: direct pooling issues Oh*Ow*Kh vector instructions at 16 of 128
// lanes, the Im2col formulation issues Kh*Kw at 128 of 128 -- `vec`
// measures exactly that. Slot currencies:
//
//   vec     lanes: used = active mask lanes per repeat iteration,
//           capacity = 128 per repeat iteration; saturated = full mask.
//   im2col/ fractals: used = fractals covered, capacity = max_repeat per
//   col2im  instruction; saturated = instruction carrying max_repeat
//           fractals (the repeat parameter fully absorbing the loop).
//   cube    busy cycles: used = fractal-MAC cycles, capacity = charged
//           cycles including issue overhead (amortization; no
//           architectural full mark, saturated stays 0).
//   mte     busy cycles: used = payload bandwidth cycles, capacity =
//           charged cycles including startup and per-burst costs
//           (achieved-bandwidth fraction; saturated stays 0).
struct Profile {
  // Histogram of the per-instruction active-lane count of the Vector
  // Unit, in eight buckets of one eighth of the mask each: bucket 0
  // counts instructions with 1..16 of 128 lanes active, bucket 7 counts
  // 113..128 (the saturated bucket).
  static constexpr int kLaneBuckets = 8;

  UnitOccupancy vec;
  UnitOccupancy im2col;
  UnitOccupancy col2im;
  UnitOccupancy cube;
  UnitOccupancy mte;
  std::int64_t vec_lane_hist[kLaneBuckets] = {};

  // Adds one issue to its unit (Ledger::book). A vector issue is a single
  // instruction, so slots_used / slots_capacity is its active-lane
  // fraction and picks its histogram bucket.
  void count(TraceKind unit, const UnitOccupancy& issued) {
    switch (unit) {
      case TraceKind::kVector:
        vec += issued;
        if (issued.slots_used > 0) {
          vec_lane_hist[(kLaneBuckets * issued.slots_used - 1) /
                        issued.slots_capacity] += 1;
        }
        return;
      case TraceKind::kMte: mte += issued; return;
      case TraceKind::kIm2col: im2col += issued; return;
      case TraceKind::kCol2im: col2im += issued; return;
      case TraceKind::kCube: cube += issued; return;
      case TraceKind::kBarrier: return;
    }
  }

  // The paper's headline metric: mean fraction of the 128 vector lanes
  // doing useful work per repeat iteration.
  double vec_lane_utilization() const { return vec.occupancy(); }

  Profile& operator+=(const Profile& o) {
    vec += o.vec;
    im2col += o.im2col;
    col2im += o.col2im;
    cube += o.cube;
    mte += o.mte;
    for (int i = 0; i < kLaneBuckets; ++i) {
      vec_lane_hist[i] += o.vec_lane_hist[i];
    }
    return *this;
  }

  std::string summary() const {
    auto pct = [](double v) {
      return std::to_string(static_cast<int>(v * 100.0 + 0.5)) + "%";
    };
    std::string s;
    s += "vec=" + pct(vec.occupancy()) + " (sat " + pct(vec.saturation()) +
         " of " + std::to_string(vec.instrs) + " instr)";
    s += " im2col=" + pct(im2col.occupancy());
    s += " col2im=" + pct(col2im.occupancy());
    s += " cube=" + pct(cube.occupancy());
    s += " mte=" + pct(mte.occupancy());
    return s;
  }
};

// Bytes moved per architectural route, counted at the same sites that
// book the cycle costs (Mte::charge by src/dst buffer kind, Scu for the
// fractal payloads Im2Col produces / Col2Im consumes, VectorUnit for UB
// operand traffic). Feeds the roofline classification in sim/metrics.h:
// achieved bytes/cycle on each route vs the arch_config.h peak, and
// arithmetic intensity = vector slots / bytes moved.
struct MemTraffic {
  std::int64_t gm_to_l1 = 0;   // MTE inbound, feature-map loads
  std::int64_t gm_to_ub = 0;   // MTE inbound, direct-to-UB loads
  std::int64_t l1_to_ub = 0;   // MTE L1 -> UB staging
  std::int64_t l1_to_l0 = 0;   // MTE L1 -> L0A/L0B cube staging
  std::int64_t ub_to_l1 = 0;   // MTE UB -> L1 write-back
  std::int64_t ub_to_gm = 0;   // MTE outbound stores
  std::int64_t l1_to_gm = 0;   // MTE outbound from L1
  std::int64_t l0c_to_ub = 0;  // cube accumulator drain
  std::int64_t ub_to_l0c = 0;  // accumulator preload
  std::int64_t im2col_bytes = 0;  // fractal bytes Im2Col wrote (L1 -> UB)
  std::int64_t col2im_bytes = 0;  // fractal bytes Col2Im read (UB -> UB)
  std::int64_t ub_vector_bytes = 0;  // UB elements the Vector Unit touched

  // All MTE-route bytes (the SCU/vector counters overlap routes above and
  // are reported separately, not summed here).
  std::int64_t mte_total() const {
    return gm_to_l1 + gm_to_ub + l1_to_ub + l1_to_l0 + ub_to_l1 + ub_to_gm +
           l1_to_gm + l0c_to_ub + ub_to_l0c;
  }
  // Bytes crossing the GM boundary in either direction -- the roofline's
  // traffic denominator.
  std::int64_t gm_total() const {
    return gm_to_l1 + gm_to_ub + ub_to_gm + l1_to_gm;
  }

  MemTraffic& operator+=(const MemTraffic& o) {
    gm_to_l1 += o.gm_to_l1;
    gm_to_ub += o.gm_to_ub;
    l1_to_ub += o.l1_to_ub;
    l1_to_l0 += o.l1_to_l0;
    ub_to_l1 += o.ub_to_l1;
    ub_to_gm += o.ub_to_gm;
    l1_to_gm += o.l1_to_gm;
    l0c_to_ub += o.l0c_to_ub;
    ub_to_l0c += o.ub_to_l0c;
    im2col_bytes += o.im2col_bytes;
    col2im_bytes += o.col2im_bytes;
    ub_vector_bytes += o.ub_vector_bytes;
    return *this;
  }
};

// Bytes and Cube MACs of one AI Core (summed over used cores in
// Device::RunResult::aggregate). Cycles are not counted here: the core's
// PipeScheduler holds them.
struct CoreCounts {
  // Fractal MACs issued to the Cube Unit (Profile::cube counts the MAC
  // cycles instead).
  std::int64_t cube_fractal_macs = 0;

  // Bytes moved per route (see MemTraffic above).
  MemTraffic traffic;

  CoreCounts& operator+=(const CoreCounts& o) {
    cube_fractal_macs += o.cube_fractal_macs;
    traffic += o.traffic;
    return *this;
  }
};

}  // namespace davinci
