// The Vector Unit (Section III-A).
//
// Executes SIMD arithmetic over data in the Unified Buffer. One
// instruction runs `repeat` iterations; each iteration processes up to 128
// fp16 lanes gated by a 128-bit mask register. Operand addresses advance
// by per-operand "repeat strides" between iterations. An iteration costs
// one cycle whether 128 lanes or 16 lanes are active -- this is the
// mechanism behind every speedup in the paper: the standard pooling
// lowering can only activate C0 = 16 of the 128 lanes, while the
// Im2col-layout lowering saturates the mask.
//
// A repeat stride of 0 keeps an operand in place across iterations; with
// dst == src0 this yields the reduction idiom the paper describes ("each
// vmax uses repetition to obtain the maximum value across the width of a
// patch Kw"). The simulator executes repeats sequentially, so the
// read-after-write behaviour is well defined. Within one repeat, every
// lane reads its operands before any lane writes (sim/fp16_lanes.h).
// Every instruction is booked once in the core's Ledger (sim/ledger.h).
#pragma once

#include <cstdint>

#include "arch/arch_config.h"
#include "arch/cost_model.h"
#include "common/float16.h"
#include "sim/ledger.h"
#include "sim/scratch.h"

namespace davinci {

// 128-bit lane mask.
struct VecMask {
  std::uint64_t lo = ~0ull;
  std::uint64_t hi = ~0ull;

  static VecMask full() { return VecMask{}; }

  // Mask with lanes [0, n) active.
  static VecMask first_n(int n);

  bool lane(int i) const {
    return i < 64 ? (lo >> i) & 1u : (hi >> (i - 64)) & 1u;
  }
  int count() const;
};

struct VecConfig {
  VecMask mask = VecMask::full();
  int repeat = 1;
  // Elements (not blocks) each operand advances between repeat iterations.
  std::int64_t dst_rep_stride = 128;
  std::int64_t src0_rep_stride = 128;
  std::int64_t src1_rep_stride = 128;

  static VecConfig flat(int repeat) {
    VecConfig c;
    c.repeat = repeat;
    return c;
  }
};

enum class VecOp : std::uint8_t { kMax, kMin, kAdd, kSub, kMul, kDiv };

const char* to_string(VecOp op);

class VectorUnit {
 public:
  VectorUnit(const ArchConfig& arch, const CostModel& cost, Ledger* ledger)
      : arch_(arch), cost_(cost), ledger_(ledger) {}

  // dst[i] = op(src0[i], src1[i]) per active lane, per repeat.
  void binary(VecOp op, Span<Float16> dst, Span<Float16> src0,
              Span<Float16> src1, const VecConfig& cfg);

  // vector_dup: dst[i] = value.
  void dup(Span<Float16> dst, Float16 value, const VecConfig& cfg);

  // vadds / vmuls: dst[i] = src[i] + s  /  src[i] * s. (vadds with s = 0 is
  // the vector-copy idiom used by the "expansion" implementation.)
  void adds(Span<Float16> dst, Span<Float16> src, Float16 s,
            const VecConfig& cfg);
  void muls(Span<Float16> dst, Span<Float16> src, Float16 s,
            const VecConfig& cfg);

  // vcmpv_eq: dst[i] = (src0[i] == src1[i]) ? 1.0 : 0.0. Produces the
  // Argmax mask by comparing each patch with the broadcast maximum
  // (Section V-A: "comparing each patch of the input with its maximum
  // value"). Ties therefore mark every maximal position, matching the
  // paper's mask semantics.
  void cmpv_eq(Span<Float16> dst, Span<Float16> src0, Span<Float16> src1,
               const VecConfig& cfg);

  // vsel: dst[i] = cond[i] != 0 ? a[i] : b[i].
  void sel(Span<Float16> dst, Span<Float16> cond, Span<Float16> a,
           Span<Float16> b, const VecConfig& cfg);

 private:
  void validate(const Span<Float16>& s, const VecConfig& cfg,
                std::int64_t rep_stride) const;
  // Charges one instruction with `lanes` active lanes per repeat.
  void charge(const char* op, const VecConfig& cfg, int lanes);

  const ArchConfig& arch_;
  const CostModel& cost_;
  Ledger* ledger_;
};

}  // namespace davinci
