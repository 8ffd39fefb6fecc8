// The fp16 lanes of one vector repeat, computed on the host.
//
// Every element op the Vector Unit and the SCU issue with a prefix mask
// comes down to "lanes [0, n) of one repeat": vadd/vsub/vmul/vdiv, the
// scalar-operand vadds/vmuls, vmax/vmin, vcmpv_eq and Col2Im's
// accumulate. This module computes exactly that, bit-identical to the
// scalar Float16 operators, fmax16, fmin16 and operator== of
// common/float16.h.
//
// Read-before-write: a call reads every operand lane before it writes any
// destination lane. For a destination that is one of the sources or
// disjoint from them -- the only layouts kernels issue -- that is also
// what a lane-by-lane loop computes; a destination overlapping a source at
// an offset reads a copy of that source. Repeats stay sequential: the
// caller issues them one call at a time, so repeat r + 1 sees repeat r's
// writes (the stride-0 reduction idiom of sim/vector_unit.h).
//
// Arithmetic has two implementations with identical results. The F16C one
// converts 8 lanes at a time with vcvtph2ps, does one binary32 operation
// and rounds back with vcvtps2ph to nearest-even -- the same single
// operation and single rounding as Float16 -- then patches NaN lanes to
// sign|0x7E00, the one encoding where the hardware conversion differs from
// detail::f32_to_f16_bits. It is compiled only for x86-64, with a
// function-level target attribute (no build flag), and chosen once per
// process when the CPU reports AVX2 and F16C. The portable one converts
// through the 64K-entry table and rounds with detail::f32_to_f16_bits.
// max/min/eq work in the bits domain and have one branch-free
// implementation that the compiler vectorizes at the baseline ISA.
//
// Two NaN operands of an arithmetic op give the first operand's NaN, as
// one x86 SSE/AVX instruction does. It is the one rule this module fixes
// where the Float16 operators do not: C++ lets the compiler swap the
// operands of a commutative a + b or a * b, and with them which NaN's sign
// survives (IEEE 754 leaves the sign of a NaN result open). Fixing it
// keeps the simulator's bits the same on every CPU and compiler.
#pragma once

#include <cstdint>

#include "common/float16.h"

namespace davinci::fp16_lanes {

// Lanes of one vector repeat (the 128-bit mask register).
inline constexpr int kMaxLanes = 128;

enum class Op : std::uint8_t {
  kAdd,  // a + b
  kSub,  // a - b
  kMul,  // a * b
  kDiv,  // a / b
  kMax,  // fmax16(a, b): a NaN operand loses, ties keep a
  kMin,  // fmin16(a, b)
  kEq,   // 1.0 where a == b (NaN unequal, +0 == -0), else 0.0
};

// dst[i] = a[i] op b[i] for i in [0, n), 0 <= n <= kMaxLanes.
void run(Op op, Float16* dst, const Float16* a, const Float16* b, int n);

// dst[i] = a[i] op s, the scalar operand broadcast to every lane, for an
// arithmetic op (kAdd, kSub, kMul, kDiv).
void run_scalar(Op op, Float16* dst, const Float16* a, Float16 s, int n);

// One implementation of the arithmetic ops, with the contracts of run()
// and run_scalar().
struct ArithImpl {
  const char* name;
  void (*run)(Op op, Float16* dst, const Float16* a, const Float16* b, int n);
  void (*run_scalar)(Op op, Float16* dst, const Float16* a, Float16 s, int n);
};

// Table conversion plus detail::f32_to_f16_bits; runs on every CPU.
const ArithImpl& portable_arith();
// vcvtph2ps / vcvtps2ph, 8 lanes at a time; nullptr unless this is x86-64
// and the CPU reports AVX2 and F16C.
const ArithImpl* f16c_arith();
// The implementation run() uses: f16c_arith() when present, else
// portable_arith(). Chosen on the first call, once per process.
const ArithImpl& active_arith();

}  // namespace davinci::fp16_lanes
