#include "sim/fp16_lanes.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "common/check.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace davinci::fp16_lanes {

namespace {

// --- Rows ---------------------------------------------------------------

// True when [dst, dst + n) and [src, src + n) overlap but do not coincide:
// the one layout where writing a destination lane can change a source lane
// of the same row not yet read.
bool overlaps_at_offset(const Float16* dst, const Float16* src, int n) {
  const std::less<const Float16*> before;
  return dst != src && before(dst, src + n) && before(src, dst + n);
}

// f(a, b, n) on copies of one row's sources: the slow path of
// reading_first.
template <class F>
[[gnu::noinline]] void on_copies(const Float16* a, const Float16* b, int n,
                                 F& f) {
  Float16 a_copy[kMaxLanes];
  Float16 b_copy[kMaxLanes];
  std::copy_n(a, n, a_copy);
  std::copy_n(b, n, b_copy);
  f(a_copy, b_copy, n);
}

// Calls f(a, b, n) for one row so that every operand lane is read before
// any destination lane is written: a source the destination overlaps at an
// offset is read from a copy. Otherwise each lane only reads and writes
// its own index, so working through the lanes in any order reads them
// first.
template <class F>
void reading_first(const Float16* dst, const Float16* a, const Float16* b,
                   int n, F& f) {
  if (overlaps_at_offset(dst, a, n) || overlaps_at_offset(dst, b, n))
      [[unlikely]] {
    on_copies(a, b, n, f);
    return;
  }
  f(a, b, n);
}

// Runs span(d, x, y, n) -- n lanes of d[i] = x[i] op y[i], in any lane
// order -- over the rows of one instruction with the row semantics of
// sim/fp16_lanes.h. A broadcast passes its one source as both a and b.
template <class Span>
void over_rows(Float16* dst, const Float16* a, std::int64_t a_stride,
               const Float16* b, std::int64_t b_stride, const Rows& r,
               Span&& span) {
  DV_CHECK(r.count >= 0 && r.lanes >= 0 && r.lanes <= kMaxLanes &&
           r.dst_stride >= 0 && a_stride >= 0 && b_stride >= 0)
      << "fp16 rows " << r.count << " x " << r.lanes << " lanes, strides "
      << r.dst_stride << "/" << a_stride << "/" << b_stride;
  if (r.count == 0 || r.lanes == 0) return;
  const std::int64_t ds = r.dst_stride;
  const int all = r.count * r.lanes;
  if (ds == r.lanes && a_stride == r.lanes && b_stride == r.lanes &&
      !overlaps_at_offset(dst, a, all) && !overlaps_at_offset(dst, b, all)) {
    // Rows contiguous in every operand, each source the destination or
    // disjoint from it: every lane reads only what it alone writes, so
    // the rows run as one span.
    span(dst, a, b, all);
    return;
  }
  // Rows in order: rows may share elements (a stride below the row width,
  // the stride-0 reduction), and a later row must see an earlier row's
  // writes.
  for (int i = 0; i < r.count; ++i) {
    Float16* const d = dst + i * ds;
    auto row = [&](const Float16* x, const Float16* y, int n) {
      span(d, x, y, n);
    };
    reading_first(d, a + i * a_stride, b + i * b_stride, r.lanes, row);
  }
}

// --- Arithmetic ---------------------------------------------------------

// The second operand of an arithmetic op: an array of lanes, or one scalar
// broadcast to every lane. Each implementation reads it a lane at a time
// (portable), 8 lanes at a time (F16C) or 32 lanes at a time (AVX-512 FP16).
struct LaneArray {
  const Float16* p;
  float lane(const float* cvt, int i) const { return cvt[p[i].bits()]; }
#if defined(__x86_64__)
  [[gnu::target("avx2,f16c")]] __m256 chunk8(int i) const {
    return _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i)));
  }
#endif
#if DAVINCI_FP16_LANES_AVX512FP16
  [[gnu::target("avx512fp16,avx512bw")]] __m512h chunk32(__mmask32 m,
                                                         int i) const {
    return _mm512_castsi512_ph(_mm512_maskz_loadu_epi16(m, p + i));
  }
#endif
};

struct Broadcast {
  Float16 s;
  float value;  // s.to_float()
  float lane(const float*, int) const { return value; }
#if defined(__x86_64__)
  [[gnu::target("avx2,f16c")]] __m256 chunk8(int) const {
    return _mm256_set1_ps(value);
  }
#endif
#if DAVINCI_FP16_LANES_AVX512FP16
  [[gnu::target("avx512fp16,avx512bw")]] __m512h chunk32(__mmask32,
                                                         int) const {
    return _mm512_castsi512_ph(
        _mm512_set1_epi16(static_cast<short>(s.bits())));
  }
#endif
};

// Lanes [from, n) in the Float16 operators' sequence: convert through the
// table, one binary32 operation, one round-to-nearest-even -- with two NaN
// operands giving a's NaN.
struct Portable {
  template <class B>
  static void lanes(Op op, Float16* dst, const Float16* a, B b, int n,
                    int from = 0) {
    const float* const cvt = detail::f16_to_f32_table();
    const auto each = [&](auto f) {
      for (int i = from; i < n; ++i) {
        const float x = cvt[a[i].bits()];
        const float y = b.lane(cvt, i);
        const bool both_nan = (x != x) & (y != y);
        dst[i] = Float16(both_nan ? x : f(x, y));
      }
    };
    switch (op) {
      case Op::kAdd: return each(std::plus<float>());
      case Op::kSub: return each(std::minus<float>());
      case Op::kMul: return each(std::multiplies<float>());
      case Op::kDiv: return each(std::divides<float>());
      default: break;
    }
    DV_CHECK(false) << "not an arithmetic fp16 op";
  }
};

#if defined(__x86_64__)

template <Op kOp>
[[gnu::target("avx2,f16c")]] inline __m256 f16c_op(__m256 x, __m256 y) {
  if constexpr (kOp == Op::kAdd) {
    return _mm256_add_ps(x, y);
  } else if constexpr (kOp == Op::kSub) {
    return _mm256_sub_ps(x, y);
  } else if constexpr (kOp == Op::kMul) {
    return _mm256_mul_ps(x, y);
  } else {
    return _mm256_div_ps(x, y);
  }
}

// Lanes [0, n - n % 8), 8 at a time; returns how many lanes it computed.
template <Op kOp, class B>
[[gnu::target("avx2,f16c")]] int f16c_chunks(Float16* dst, const Float16* a,
                                             B b, int n) {
  const __m128i magnitude = _mm_set1_epi16(0x7FFF);
  const __m128i inf = _mm_set1_epi16(0x7C00);
  const __m128i sign = _mm_set1_epi16(static_cast<short>(0x8000));
  const __m128i quiet_nan = _mm_set1_epi16(0x7E00);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = LaneArray{a}.chunk8(i);
    const __m256 y = b.chunk8(i);
    const __m256 both_nan = _mm256_and_ps(_mm256_cmp_ps(x, x, _CMP_UNORD_Q),
                                          _mm256_cmp_ps(y, y, _CMP_UNORD_Q));
    const __m256 r = _mm256_blendv_ps(f16c_op<kOp>(x, y), x, both_nan);
    const __m128i h = _mm256_cvtps_ph(r, _MM_FROUND_TO_NEAREST_INT);
    // vcvtps2ph keeps a NaN's top payload bits; f32_to_f16_bits turns
    // every NaN into sign|0x7E00.
    const __m128i is_nan = _mm_cmpgt_epi16(_mm_and_si128(h, magnitude), inf);
    const __m128i canonical = _mm_or_si128(_mm_and_si128(h, sign), quiet_nan);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_blendv_epi8(h, canonical, is_nan));
  }
  return i;
}

struct F16c {
  template <class B>
  [[gnu::target("avx2,f16c")]] static void lanes(Op op, Float16* dst,
                                                 const Float16* a, B b,
                                                 int n) {
    int done = 0;
    switch (op) {
      case Op::kAdd: done = f16c_chunks<Op::kAdd>(dst, a, b, n); break;
      case Op::kSub: done = f16c_chunks<Op::kSub>(dst, a, b, n); break;
      case Op::kMul: done = f16c_chunks<Op::kMul>(dst, a, b, n); break;
      case Op::kDiv: done = f16c_chunks<Op::kDiv>(dst, a, b, n); break;
      default: break;
    }
    // The n % 8 tail: a full 8-lane chunk would read and write past lane n.
    if (done < n) Portable::lanes(op, dst, a, b, n, done);
  }
};

bool cpu_has_f16c() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("f16c");
}

#endif  // defined(__x86_64__)

#if DAVINCI_FP16_LANES_AVX512FP16

// Lanes [i, min(i + 32, n)) of a 32-lane chunk loop.
inline __mmask32 chunk_mask(int i, int n) {
  return n - i >= 32 ? ~__mmask32{0} : (__mmask32{1} << (n - i)) - 1;
}

// The lanes of v that hold a NaN (a magnitude above infinity's).
[[gnu::target("avx512bw")]] inline __mmask32 nan_lanes(__m512i v) {
  return _mm512_cmpgt_epi16_mask(
      _mm512_and_si512(v, _mm512_set1_epi16(0x7FFF)),
      _mm512_set1_epi16(0x7C00));
}

template <Op kOp>
[[gnu::target("avx512fp16,avx512bw")]] inline __m512h avx512_op(
    __mmask32 m, __m512h x, __m512h y) {
  // Zero-masked: lanes past n compute nothing, so they raise no flags.
  if constexpr (kOp == Op::kAdd) {
    return _mm512_maskz_add_ph(m, x, y);
  } else if constexpr (kOp == Op::kSub) {
    return _mm512_maskz_sub_ph(m, x, y);
  } else if constexpr (kOp == Op::kMul) {
    return _mm512_maskz_mul_ph(m, x, y);
  } else {
    return _mm512_maskz_div_ph(m, x, y);
  }
}

// Lanes [0, n), 32 at a time; the tail chunk loads and stores through
// its lane mask.
template <Op kOp, class B>
[[gnu::target("avx512fp16,avx512bw")]] void avx512_chunks(Float16* dst,
                                                          const Float16* a,
                                                          B b, int n) {
  const __m512i sign = _mm512_set1_epi16(static_cast<short>(0x8000));
  const __m512i quiet_nan = _mm512_set1_epi16(0x7E00);
  for (int i = 0; i < n; i += 32) {
    const __mmask32 m = chunk_mask(i, n);
    const __m512h x = LaneArray{a}.chunk32(m, i);
    const __m512h y = b.chunk32(m, i);
    const __m512i xi = _mm512_castph_si512(x);
    const __mmask32 both_nan =
        nan_lanes(xi) & nan_lanes(_mm512_castph_si512(y));
    // The native op may return either NaN of two (the compiler may swap a
    // commutative op's operands); take a's, then make every NaN lane
    // sign|0x7E00 as f32_to_f16_bits does.
    const __m512i r = _mm512_mask_blend_epi16(
        both_nan, _mm512_castph_si512(avx512_op<kOp>(m, x, y)), xi);
    const __m512i canonical =
        _mm512_or_si512(_mm512_and_si512(r, sign), quiet_nan);
    _mm512_mask_storeu_epi16(
        dst + i, m, _mm512_mask_blend_epi16(nan_lanes(r), r, canonical));
  }
}

struct Avx512Fp16 {
  template <class B>
  [[gnu::target("avx512fp16,avx512bw")]] static void lanes(Op op,
                                                           Float16* dst,
                                                           const Float16* a,
                                                           B b, int n) {
    switch (op) {
      case Op::kAdd: return avx512_chunks<Op::kAdd>(dst, a, b, n);
      case Op::kSub: return avx512_chunks<Op::kSub>(dst, a, b, n);
      case Op::kMul: return avx512_chunks<Op::kMul>(dst, a, b, n);
      case Op::kDiv: return avx512_chunks<Op::kDiv>(dst, a, b, n);
      default: break;
    }
    DV_CHECK(false) << "not an arithmetic fp16 op";
  }
};

bool cpu_has_avx512fp16() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512fp16") &&
         __builtin_cpu_supports("avx512bw");
}

#endif  // DAVINCI_FP16_LANES_AVX512FP16

// --- Max / min / eq -----------------------------------------------------

// Max/min/eq in the bits domain. The order key maps the sign-magnitude
// half encoding to a signed integer that is monotone in the value and
// sends -0 and +0 to the same key, so "a >= b keeps a" -- and with it the
// first-operand-wins tie of fmax16 -- holds bit for bit. Keys, NaN tests
// and the select are all 16-bit integer ops without branches.
inline std::int16_t order_key(std::uint16_t u) {
  const std::int16_t mag = static_cast<std::int16_t>(u & 0x7FFF);
  const std::int16_t neg =  // all ones when the sign bit is set
      static_cast<std::int16_t>(static_cast<std::int16_t>(u) >> 15);
  return static_cast<std::int16_t>((mag ^ neg) - neg);
}

inline bool is_nan(std::uint16_t u) { return (u & 0x7FFF) > 0x7C00; }

struct MaxLane {
  std::uint16_t operator()(std::uint16_t a, std::uint16_t b) const {
    const bool a_number = !is_nan(a);
    const bool keep_a = a_number & (is_nan(b) | (order_key(a) >= order_key(b)));
    return keep_a ? a : b;
  }
};

struct MinLane {
  std::uint16_t operator()(std::uint16_t a, std::uint16_t b) const {
    const bool a_number = !is_nan(a);
    const bool keep_a = a_number & (is_nan(b) | (order_key(a) <= order_key(b)));
    return keep_a ? a : b;
  }
};

struct EqLane {
  std::uint16_t operator()(std::uint16_t a, std::uint16_t b) const {
    // Equal keys mean equal bits or two zeros, so b is NaN only if a is.
    const bool a_number = !is_nan(a);
    const bool equal = a_number & (order_key(a) == order_key(b));
    return equal ? 0x3C00 : 0x0000;  // 1.0 : 0.0
  }
};

// The lane op is a functor rather than a function pointer so that it
// inlines into the loop and the loop vectorizes at the baseline ISA.
// Blocks of 8 lanes go through local copies: a fixed trip count with no
// aliasing, which the compiler vectorizes even under its cheapest cost
// model (GCC's -O2). Kept out of line: inlined into compare_lanes' switch
// (each instance has one caller there), GCC 12 compiles the loops about
// three times slower (paper_kernels 2,900 -> 950 req/s).
template <class Lane>
[[gnu::noinline]] void compare_span(Float16* dst, const Float16* a,
                                    const Float16* b, int n) {
  const Lane lane;
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint16_t xs[8] = {}, ys[8] = {}, rs[8] = {};
    std::memcpy(xs, a + i, sizeof xs);
    std::memcpy(ys, b + i, sizeof ys);
    for (int j = 0; j < 8; ++j) rs[j] = lane(xs[j], ys[j]);
    std::memcpy(dst + i, rs, sizeof rs);
  }
  for (; i < n; ++i) {
    dst[i] = Float16::from_bits(lane(a[i].bits(), b[i].bits()));
  }
}

// The compares of every implementation. (A 32-lane AVX-512BW version gave
// the cluster_heavy benchmark no clear gain over this one.)
void compare_lanes(Op op, Float16* dst, const Float16* a, const Float16* b,
                   int n) {
  switch (op) {
    case Op::kMax: return compare_span<MaxLane>(dst, a, b, n);
    case Op::kMin: return compare_span<MinLane>(dst, a, b, n);
    case Op::kEq: return compare_span<EqLane>(dst, a, b, n);
    default: break;
  }
  DV_CHECK(false) << "not an fp16 compare op";
}

// --- Implementations ----------------------------------------------------

// An implementation's two entry points: Arith computes kAdd..kDiv;
// kMax, kMin and kEq are compare_lanes.
template <class Arith>
void run_rows(Op op, Float16* dst, const Float16* a, const Float16* b,
              const Rows& r) {
  const bool compare = op == Op::kMax || op == Op::kMin || op == Op::kEq;
  over_rows(dst, a, r.a_stride, b, r.b_stride, r,
            [op, compare](Float16* d, const Float16* x, const Float16* y,
                          int n) {
              if (compare) return compare_lanes(op, d, x, y, n);
              Arith::lanes(op, d, x, LaneArray{y}, n);
            });
}

template <class Arith>
void run_scalar_rows(Op op, Float16* dst, const Float16* a, Float16 s,
                     const Rows& r) {
  over_rows(dst, a, r.a_stride, a, r.a_stride, r,
            [op, s](Float16* d, const Float16* x, const Float16*, int n) {
              Arith::lanes(op, d, x, Broadcast{s, s.to_float()}, n);
            });
}

}  // namespace

void run(Op op, Float16* dst, const Float16* a, const Float16* b,
         const Rows& rows) {
  active_arith().run(op, dst, a, b, rows);
}

void run_scalar(Op op, Float16* dst, const Float16* a, Float16 s,
                const Rows& rows) {
  active_arith().run_scalar(op, dst, a, s, rows);
}

const ArithImpl& portable_arith() {
  static const ArithImpl impl{"portable", run_rows<Portable>,
                              run_scalar_rows<Portable>};
  return impl;
}

const ArithImpl* f16c_arith() {
#if defined(__x86_64__)
  static const ArithImpl impl{"f16c", run_rows<F16c>, run_scalar_rows<F16c>};
  static const bool supported = cpu_has_f16c();
  return supported ? &impl : nullptr;
#else
  return nullptr;
#endif
}

const ArithImpl* avx512fp16_arith() {
#if DAVINCI_FP16_LANES_AVX512FP16
  static const ArithImpl impl{"avx512fp16", run_rows<Avx512Fp16>,
                              run_scalar_rows<Avx512Fp16>};
  static const bool supported = cpu_has_avx512fp16();
  return supported ? &impl : nullptr;
#else
  return nullptr;
#endif
}

const ArithImpl& active_arith() {
  static const ArithImpl& impl = avx512fp16_arith() != nullptr
                                     ? *avx512fp16_arith()
                                 : f16c_arith() != nullptr ? *f16c_arith()
                                                           : portable_arith();
  return impl;
}

}  // namespace davinci::fp16_lanes
