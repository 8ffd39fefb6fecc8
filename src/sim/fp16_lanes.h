// The fp16 lanes of one instruction, computed on the host.
//
// Every element op the Vector Unit and the SCU issue with a prefix mask
// comes down to "lanes [0, n) of each of `count` rows": vadd/vsub/vmul/vdiv,
// the scalar-operand vadds/vmuls, vmax/vmin, vcmpv_eq and Col2Im's
// accumulate. A Vector Unit instruction is one call (its repeats are the
// rows, its repeat strides the row strides); so is one output row of a
// Col2Im plane (its patches are the rows). This module computes exactly
// that, bit-identical to the scalar Float16 operators, fmax16, fmin16 and
// operator== of common/float16.h applied row after row.
//
// Row semantics: rows run in order, and each row reads every operand lane
// before it writes any destination lane. So the stride-0 reduction idiom
// (dst == a, both stride 0; sim/vector_unit.h) sees the previous row's
// result, and a destination that overlaps a source at an offset reads a
// copy of that source's row. Rows that are contiguous in every operand
// run as one span where each source is either the destination itself or
// disjoint from it over the whole instruction; kernels issue no other
// layout of contiguous rows.
//
// Three implementations give identical results; one is chosen on the first
// call, once per process, from what the CPU reports (no option or build
// flag), and compiled through function-level target attributes only:
//  * "avx512fp16" (x86-64 CPUs reporting AVX-512 FP16 and AVX-512BW): 32
//    lanes per native vaddph/vsubph/vmulph/vdivph, masked loads and stores
//    for the tail.
//  * "f16c" (AVX2 and F16C): vcvtph2ps 8 lanes at a time, one binary32
//    operation, vcvtps2ph to nearest-even.
//  * "portable" (every CPU): the 64K-entry conversion table, one binary32
//    operation and detail::f32_to_f16_bits.
// All three share one branch-free bits-domain max/min/eq loop that the
// compiler vectorizes at the baseline ISA.
//
// Why the bits match: binary32 has 24 >= 2 * 11 + 2 significand bits, so
// for binary16 operands widening, one binary32 operation and one rounding
// to binary16 give the correctly rounded +, -, * or / -- exactly what a
// native binary16 operation gives, and what the Float16 operators compute.
// NaNs are the exception the module fixes: every NaN lane becomes
// sign|0x7E00 (detail::f32_to_f16_bits' encoding; hardware conversions and
// native ops keep payload bits), and two NaN operands give the first
// operand's NaN, as one x86 SSE/AVX instruction does. C++ lets the
// compiler swap the operands of a commutative a + b or a * b, and with them
// which NaN's sign survives (IEEE 754 leaves the sign of a NaN result
// open); fixing it keeps the simulator's bits the same on every CPU and
// compiler.
#pragma once

#include <cstdint>

#include "common/float16.h"

// 1 where this compiler builds the AVX-512 FP16 implementation: x86-64
// with GCC 12 or Clang 14 or later, the first to know its intrinsics. With
// an older compiler avx512fp16_arith() is nullptr on every CPU.
#if defined(__x86_64__) &&                           \
    ((defined(__clang__) && __clang_major__ >= 14) || \
     (!defined(__clang__) && defined(__GNUC__) && __GNUC__ >= 12))
#define DAVINCI_FP16_LANES_AVX512FP16 1
#else
#define DAVINCI_FP16_LANES_AVX512FP16 0
#endif

namespace davinci::fp16_lanes {

// Lanes of one row (the 128-bit mask register).
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

// The shape of one instruction: `count` rows of lanes [0, lanes); row r of
// an operand starts r times its stride (in elements, >= 0) after row 0.
struct Rows {
  int count = 1;
  int lanes = 0;  // 0 <= lanes <= kMaxLanes
  std::int64_t dst_stride = 0;
  std::int64_t a_stride = 0;
  std::int64_t b_stride = 0;
};

// dst[i] = a[i] op b[i] for every lane i of every row.
void run(Op op, Float16* dst, const Float16* a, const Float16* b,
         const Rows& rows);

// dst[i] = a[i] op s, the scalar operand broadcast to every lane, for an
// arithmetic op (kAdd, kSub, kMul, kDiv). rows.b_stride is unused.
void run_scalar(Op op, Float16* dst, const Float16* a, Float16 s,
                const Rows& rows);

// One implementation of every lane op, with the contracts of run() and
// run_scalar().
struct ArithImpl {
  const char* name;
  void (*run)(Op op, Float16* dst, const Float16* a, const Float16* b,
              const Rows& rows);
  void (*run_scalar)(Op op, Float16* dst, const Float16* a, Float16 s,
                     const Rows& rows);
};

// Table conversion plus detail::f32_to_f16_bits; runs on every CPU.
const ArithImpl& portable_arith();
// vcvtph2ps / vcvtps2ph, 8 lanes at a time; nullptr unless this is x86-64
// and the CPU reports AVX2 and F16C.
const ArithImpl* f16c_arith();
// Native binary16 arithmetic, 32 lanes at a time; nullptr unless the
// compiler built it (DAVINCI_FP16_LANES_AVX512FP16) and the CPU reports
// AVX-512 FP16 and AVX-512BW.
const ArithImpl* avx512fp16_arith();
// The implementation run() uses: the first of avx512fp16_arith(),
// f16c_arith() and portable_arith() that is present. Chosen on the first
// call, once per process.
const ArithImpl& active_arith();

}  // namespace davinci::fp16_lanes
