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

// True when [dst, dst + n) and [src, src + n) overlap but do not coincide:
// the one layout where writing a destination lane can change a source lane
// not yet read.
bool overlaps_at_offset(const Float16* dst, const Float16* src, int n) {
  const std::less<const Float16*> before;
  return dst != src && before(dst, src + n) && before(src, dst + n);
}

// f(a, b) on copies of the sources: the slow path of reading_first.
template <class F>
[[gnu::noinline]] void on_copies(const Float16* a, const Float16* b, int n,
                                 F& f) {
  DV_CHECK(n >= 0 && n <= kMaxLanes) << "fp16 lanes " << n;
  Float16 a_copy[kMaxLanes];
  Float16 b_copy[kMaxLanes];
  std::copy_n(a, n, a_copy);
  std::copy_n(b, n, b_copy);
  f(a_copy, b_copy);
}

// Calls f(a, b) so that every operand lane is read before any destination
// lane is written: a source the destination overlaps at an offset is read
// from a copy. Otherwise each lane only reads and writes its own index, so
// working through the lanes in any order reads them first.
template <class F>
void reading_first(const Float16* dst, const Float16* a, const Float16* b,
                   int n, F&& f) {
  if (overlaps_at_offset(dst, a, n) || overlaps_at_offset(dst, b, n))
      [[unlikely]] {
    on_copies(a, b, n, f);
    return;
  }
  f(a, b);
}

// The second operand of an arithmetic op, read a lane at a time (portable)
// or 8 lanes at a time (F16C): an array of lanes, or one scalar broadcast
// to every lane.
struct LaneArray {
  const Float16* p;
  float lane(const float* cvt, int i) const { return cvt[p[i].bits()]; }
#if defined(__x86_64__)
  [[gnu::target("avx2,f16c")]] __m256 chunk(int i) const {
    return _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i)));
  }
#endif
};

struct Broadcast {
  float value;
  float lane(const float*, int) const { return value; }
#if defined(__x86_64__)
  [[gnu::target("avx2,f16c")]] __m256 chunk(int) const {
    return _mm256_set1_ps(value);
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
    const __m256 x = LaneArray{a}.chunk(i);
    const __m256 y = b.chunk(i);
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

// An implementation's two entry points.
template <class Impl>
void run_lanes(Op op, Float16* dst, const Float16* a, const Float16* b,
               int n) {
  reading_first(dst, a, b, n, [&](const Float16* x, const Float16* y) {
    Impl::lanes(op, dst, x, LaneArray{y}, n);
  });
}

template <class Impl>
void run_broadcast(Op op, Float16* dst, const Float16* a, Float16 s, int n) {
  reading_first(dst, a, a, n, [&](const Float16* x, const Float16*) {
    Impl::lanes(op, dst, x, Broadcast{s.to_float()}, n);
  });
}

// Max/min/eq in the bits domain. The order key maps the sign-magnitude
// half encoding to a signed integer that is monotone in the value and
// sends -0 and +0 to the same key, so "a >= b keeps a" -- and with it the
// first-operand-wins tie of fmax16 -- holds bit for bit. Keys, NaN tests
// and the select are all 16-bit integer ops without branches, which the
// compiler vectorizes at the baseline ISA.
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
// inlines into the loop and the loop vectorizes. Blocks of 8 lanes go
// through local copies: a fixed trip count with no aliasing, which the
// compiler vectorizes even under its cheapest cost model (GCC's -O2).
template <class Lane>
void compare_lanes(Float16* dst, const Float16* a, const Float16* b, int n) {
  reading_first(dst, a, b, n, [&](const Float16* x, const Float16* y) {
    const Lane lane;
    int i = 0;
    for (; i + 8 <= n; i += 8) {
      std::uint16_t xs[8] = {}, ys[8] = {}, rs[8] = {};
      std::memcpy(xs, x + i, sizeof xs);
      std::memcpy(ys, y + i, sizeof ys);
      for (int j = 0; j < 8; ++j) rs[j] = lane(xs[j], ys[j]);
      std::memcpy(dst + i, rs, sizeof rs);
    }
    for (; i < n; ++i) {
      dst[i] = Float16::from_bits(lane(x[i].bits(), y[i].bits()));
    }
  });
}

}  // namespace

void run(Op op, Float16* dst, const Float16* a, const Float16* b, int n) {
  switch (op) {
    case Op::kMax: return compare_lanes<MaxLane>(dst, a, b, n);
    case Op::kMin: return compare_lanes<MinLane>(dst, a, b, n);
    case Op::kEq: return compare_lanes<EqLane>(dst, a, b, n);
    default: return active_arith().run(op, dst, a, b, n);
  }
}

void run_scalar(Op op, Float16* dst, const Float16* a, Float16 s, int n) {
  active_arith().run_scalar(op, dst, a, s, n);
}

const ArithImpl& portable_arith() {
  static const ArithImpl impl{"portable", run_lanes<Portable>,
                              run_broadcast<Portable>};
  return impl;
}

const ArithImpl* f16c_arith() {
#if defined(__x86_64__)
  static const ArithImpl impl{"f16c", run_lanes<F16c>, run_broadcast<F16c>};
  static const bool supported = cpu_has_f16c();
  return supported ? &impl : nullptr;
#else
  return nullptr;
#endif
}

const ArithImpl& active_arith() {
  static const ArithImpl& impl =
      f16c_arith() != nullptr ? *f16c_arith() : portable_arith();
  return impl;
}

}  // namespace davinci::fp16_lanes
