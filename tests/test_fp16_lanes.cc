// Tests for sim/fp16_lanes: every implementation the CPU can run (its
// arithmetic and the bits-domain max/min/eq they share) against the scalar
// Float16 operators, fmax16, fmin16 and operator==, plus the module's
// lane-range, read-before-write and row contracts.
#include "sim/fp16_lanes.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace davinci {
namespace {

using fp16_lanes::ArithImpl;
using fp16_lanes::kMaxLanes;
using fp16_lanes::Op;
using fp16_lanes::Rows;

// Signature shared by fp16_lanes::run and ArithImpl::run.
using RowsFn = void (*)(Op, Float16*, const Float16*, const Float16*,
                        const Rows&);

// Contiguous rows in one call: `count` rows of `lanes` lanes, every stride
// equal to `lanes`, so the module runs them as one span.
constexpr Rows dense(int count, int lanes) {
  return Rows{count, lanes, lanes, lanes, lanes};
}

// Call shapes the sweeps cycle through: a full row, a width that is not a
// multiple of 8 or 32, one C0 row, and spans of 4 x 128 and 3 x 37 lanes.
constexpr Rows kShapes[] = {dense(1, 128), dense(1, 37), dense(1, 16),
                            dense(4, 128), dense(3, 37)};
constexpr int kShapeLanes = 4 * 128;  // the longest span

// The scalar reference each lane must match bit for bit. Two NaN operands
// of add or mul give a's NaN (the module's rule): there the Float16
// operator's sign is the compiler's choice of operand order.
template <Op kOp>
Float16 reference(Float16 a, Float16 b) {
  if constexpr (kOp == Op::kAdd || kOp == Op::kMul) {
    if (a.is_nan() && b.is_nan()) {
      return Float16::from_bits((a.bits() & 0x8000) | 0x7E00);
    }
  }
  if constexpr (kOp == Op::kAdd) return a + b;
  if constexpr (kOp == Op::kSub) return a - b;
  if constexpr (kOp == Op::kMul) return a * b;
  if constexpr (kOp == Op::kDiv) return a / b;
  if constexpr (kOp == Op::kMax) return fmax16(a, b);
  if constexpr (kOp == Op::kMin) return fmin16(a, b);
  if constexpr (kOp == Op::kEq) {
    return Float16::from_bits(a == b ? 0x3C00 : 0x0000);  // 1.0 : 0.0
  }
}

Float16 reference(Op op, Float16 a, Float16 b) {
  switch (op) {
    case Op::kAdd: return reference<Op::kAdd>(a, b);
    case Op::kSub: return reference<Op::kSub>(a, b);
    case Op::kMul: return reference<Op::kMul>(a, b);
    case Op::kDiv: return reference<Op::kDiv>(a, b);
    case Op::kMax: return reference<Op::kMax>(a, b);
    case Op::kMin: return reference<Op::kMin>(a, b);
    case Op::kEq: return reference<Op::kEq>(a, b);
  }
  return Float16();
}

const char* name(Op op) {
  switch (op) {
    case Op::kAdd: return "add";
    case Op::kSub: return "sub";
    case Op::kMul: return "mul";
    case Op::kDiv: return "div";
    case Op::kMax: return "max";
    case Op::kMin: return "min";
    case Op::kEq: return "eq";
  }
  return "?";
}

// The implementations this CPU can run: always the portable one, plus the
// F16C one when the CPU reports AVX2 and F16C and the AVX-512 FP16 one when
// it reports AVX-512 FP16 and AVX-512BW (and the compiler built it). All
// three share one compare loop. A case that sweeps them names in its output
// each one this build lacks.
std::vector<const ArithImpl*> arith_impls() {
  std::vector<const ArithImpl*> impls{&fp16_lanes::portable_arith()};
  const std::pair<const ArithImpl*, const char*> optional[] = {
      {fp16_lanes::f16c_arith(), "f16c (AVX2 + F16C)"},
      {fp16_lanes::avx512fp16_arith(), "avx512fp16 (AVX-512 FP16 + BW)"}};
  for (const auto& [impl, what] : optional) {
    if (impl != nullptr) {
      impls.push_back(impl);
    } else {
      std::printf("[ note ] this build cannot run %s: not tested here\n",
                  what);
    }
  }
  return impls;
}

bool is_compare(Op op) {
  return op == Op::kMax || op == Op::kMin || op == Op::kEq;
}

// Every class of binary16 operand: both zeros, subnormals, both ends of
// every exponent's mantissa range, both infinities and quiet and
// signalling NaNs of both signs.
std::vector<Float16> operand_classes() {
  std::vector<std::uint16_t> bits = {0x0001, 0x0002, 0x01FF, 0x0200, 0x03FE,
                                     0x03FF, 0x7C00, 0x7E00, 0x7E01, 0x7FFF,
                                     0x7C01, 0x7D00, 0x7DFF, 0x0000};
  for (std::uint16_t e = 1; e <= 30; ++e) {
    bits.push_back(static_cast<std::uint16_t>(e << 10));
    bits.push_back(static_cast<std::uint16_t>(e << 10 | 0x3FF));
  }
  std::vector<Float16> out;
  for (const std::uint16_t b : bits) {
    out.push_back(Float16::from_bits(b));
    out.push_back(Float16::from_bits(static_cast<std::uint16_t>(b | 0x8000)));
  }
  return out;
}

// Mismatch count of one implementation, with the first mismatch kept for
// the report.
struct Mismatches {
  std::uint64_t count = 0;
  std::uint16_t a = 0, b = 0, got = 0, want = 0;

  void add(Float16 x, Float16 y, Float16 g, Float16 w) {
    if (count++ == 0) {
      a = x.bits();
      b = y.bits();
      got = g.bits();
      want = w.bits();
    }
  }
  void merge(const Mismatches& o) {
    if (count == 0) *this = o;
    else count += o.count;
  }
};

void expect_none(const Mismatches& m, const char* impl, Op op) {
  EXPECT_EQ(m.count, 0u) << impl << " " << name(op) << ": first mismatch a=0x"
                         << std::hex << m.a << " b=0x" << m.b << " got 0x"
                         << m.got << " want 0x" << m.want;
}

// Splits the 2^16 values of the first operand over up to four threads,
// like Float16.ConversionMatchesOracleOnEveryFloat; slice(lo, hi) returns
// one Mismatches per implementation under test.
template <class Slice>
std::vector<Mismatches> over_every_a(std::size_t impls, Slice slice) {
  const unsigned slices =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  static constexpr std::uint32_t kAll = 1u << 16;
  const std::uint32_t per = (kAll + slices - 1) / slices;
  std::vector<std::vector<Mismatches>> result(slices);
  {
    std::vector<std::jthread> threads;  // joined when the scope closes
    for (unsigned s = 0; s < slices; ++s) {
      threads.emplace_back([&result, &slice, s, per] {
        const std::uint32_t lo = s * per;
        result[s] = slice(lo, std::min(lo + per, kAll));
      });
    }
  }
  std::vector<Mismatches> total(impls);
  for (const auto& r : result) {
    for (std::size_t i = 0; i < impls; ++i) total[i].merge(r[i]);
  }
  return total;
}

// One op of one implementation under test.
struct Check {
  const char* impl;
  Op op;
  RowsFn fn;
};

// Every op on every implementation.
std::vector<Check> checks_of(std::initializer_list<Op> ops) {
  const std::vector<const ArithImpl*> impls = arith_impls();
  std::vector<Check> checks;
  for (const Op op : ops) {
    for (const ArithImpl* impl : impls) {
      checks.push_back({impl->name, op, impl->run});
    }
  }
  return checks;
}

// A call's shape cut down to the `left` lanes the sweep still has: whole
// rows while they fit, else one row of what is left.
Rows clip(const Rows& r, std::size_t left) {
  if (static_cast<std::size_t>(r.count) * r.lanes <= left) return r;
  if (static_cast<std::size_t>(r.lanes) <= left) {
    return dense(static_cast<int>(left / r.lanes), r.lanes);
  }
  return dense(1, static_cast<int>(left));
}

// Checks every pair (a, b) with a in [lo, hi) and b in `bs` against the
// references of kOps, which are computed together so that they can share
// the pair's operand conversions. The lanes of one call share a and walk
// through b, with call shapes cycling through kShapes. Returns one
// Mismatches per check.
template <Op... kOps>
std::vector<Mismatches> check_pairs(const std::vector<Check>& checks,
                                    std::uint32_t lo, std::uint32_t hi,
                                    const std::vector<Float16>& bs) {
  std::vector<Mismatches> m(checks.size());
  std::array<Float16, kShapeLanes> a{}, got{};
  std::array<std::array<Float16, kShapeLanes>, 7> want{};  // by Op
  std::size_t w = 0;
  for (std::uint32_t x = lo; x < hi; ++x) {
    a.fill(Float16::from_bits(static_cast<std::uint16_t>(x)));
    for (std::size_t j = 0; j < bs.size();) {
      const Rows shape =
          clip(kShapes[w++ % std::size(kShapes)], bs.size() - j);
      const int n = shape.count * shape.lanes;
      const Float16* const b = bs.data() + j;
      for (int i = 0; i < n; ++i) {
        ((want[static_cast<int>(kOps)][i] = reference<kOps>(a[0], b[i])), ...);
      }
      for (std::size_t c = 0; c < checks.size(); ++c) {
        checks[c].fn(checks[c].op, got.data(), a.data(), b, shape);
        const auto& ref = want[static_cast<int>(checks[c].op)];
        if (std::memcmp(got.data(), ref.data(), n * sizeof(Float16)) == 0) {
          continue;  // the common case, without a branch per lane
        }
        for (int i = 0; i < n; ++i) {
          if (got[i].bits() != ref[i].bits()) {
            m[c].add(a[0], b[i], got[i], ref[i]);
          }
        }
      }
      j += n;
    }
  }
  return m;
}

void expect_none(const std::vector<Check>& checks,
                 const std::vector<Mismatches>& m) {
  for (std::size_t c = 0; c < checks.size(); ++c) {
    expect_none(m[c], checks[c].impl, checks[c].op);
  }
}

std::vector<Float16> every_half() {
  std::vector<Float16> all(1u << 16);
  for (std::uint32_t i = 0; i < all.size(); ++i) {
    all[i] = Float16::from_bits(static_cast<std::uint16_t>(i));
  }
  return all;
}

TEST(Fp16Lanes, ActiveImplementationFollowsTheCpu) {
  // The widest implementation the CPU reports: AVX-512 FP16 (where the
  // compiler built it), else F16C, else the portable loop.
#if defined(__x86_64__)
  __builtin_cpu_init();
  const bool f16c =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("f16c");
#else
  const bool f16c = false;
#endif
#if DAVINCI_FP16_LANES_AVX512FP16
  const bool avx512fp16 = __builtin_cpu_supports("avx512fp16") &&
                          __builtin_cpu_supports("avx512bw");
#else
  const bool avx512fp16 = false;
  std::printf("[ note ] this compiler does not build the avx512fp16 lanes\n");
#endif
  EXPECT_EQ(fp16_lanes::avx512fp16_arith() != nullptr, avx512fp16);
  EXPECT_EQ(fp16_lanes::f16c_arith() != nullptr, f16c);
  const ArithImpl* const want = avx512fp16 ? fp16_lanes::avx512fp16_arith()
                                : f16c     ? fp16_lanes::f16c_arith()
                                           : &fp16_lanes::portable_arith();
  EXPECT_EQ(&fp16_lanes::active_arith(), want);
  std::printf("[ note ] active fp16 lane implementation: %s\n",
              fp16_lanes::active_arith().name);
}

TEST(Fp16Lanes, KernelOpsMatchFloat16OnEveryPair) {
  // All 2^32 operand pairs of the ops kernels issue.
  const auto checks =
      checks_of({Op::kAdd, Op::kMul, Op::kMax, Op::kMin, Op::kEq});
  const std::vector<Float16> all = every_half();
  expect_none(checks, over_every_a(checks.size(), [&](auto lo, auto hi) {
                return check_pairs<Op::kAdd, Op::kMul, Op::kMax, Op::kMin,
                                   Op::kEq>(checks, lo, hi, all);
              }));
}

TEST(Fp16Lanes, SubAndDivMatchFloat16OnEveryOperandClass) {
  const auto checks = checks_of({Op::kSub, Op::kDiv});
  const std::vector<Float16> classes = operand_classes();
  expect_none(checks, over_every_a(checks.size(), [&](auto lo, auto hi) {
                return check_pairs<Op::kSub, Op::kDiv>(checks, lo, hi,
                                                      classes);
              }));
}

TEST(Fp16Lanes, BroadcastScalarMatchesFloat16OnEveryOperandClass) {
  // Every a against every class of scalar, for each arithmetic op: the
  // lanes of one call walk through a, the scalar stays fixed.
  const std::vector<Float16> all = every_half();
  const std::vector<Float16> classes = operand_classes();
  for (const ArithImpl* impl : arith_impls()) {
    for (const Op op : {Op::kAdd, Op::kSub, Op::kMul, Op::kDiv}) {
      Mismatches m;
      std::array<Float16, kShapeLanes> got{};
      std::size_t w = 0;
      for (const Float16 s : classes) {
        for (std::size_t j = 0; j < all.size();) {
          const Rows shape =
              clip(kShapes[w++ % std::size(kShapes)], all.size() - j);
          const int n = shape.count * shape.lanes;
          impl->run_scalar(op, got.data(), all.data() + j, s, shape);
          for (int i = 0; i < n; ++i) {
            const Float16 want = reference(op, all[j + i], s);
            if (got[i].bits() != want.bits()) {
              m.add(all[j + i], s, got[i], want);
            }
          }
          j += n;
        }
      }
      expect_none(m, impl->name, op);
    }
  }
}

TEST(Fp16Lanes, LanesPastTheCountStayUntouched) {
  // Widths 0..128, including every width that is not a multiple of 8 or
  // 32: only lanes [0, n) of the destination change.
  const Float16 guard = Float16::from_bits(0x5A5A);
  std::array<Float16, kMaxLanes + 8> a{}, b{}, dst{};
  for (int i = 0; i < kMaxLanes + 8; ++i) {
    a[i] = Float16(static_cast<float>(i) * 0.75f - 40.0f);
    b[i] = Float16(static_cast<float>(i % 11) - 3.5f);
  }
  for (const ArithImpl* impl : arith_impls()) {
    for (int n = 0; n <= kMaxLanes; ++n) {
      for (const Op op : {Op::kAdd, Op::kSub, Op::kMul, Op::kDiv, Op::kMax,
                          Op::kMin, Op::kEq}) {
        dst.fill(guard);
        impl->run(op, dst.data(), a.data(), b.data(), dense(1, n));
        for (int i = 0; i < kMaxLanes + 8; ++i) {
          const Float16 want = i < n ? reference(op, a[i], b[i]) : guard;
          ASSERT_EQ(dst[i].bits(), want.bits())
              << impl->name << " " << name(op) << " n=" << n << " lane " << i;
        }
        if (is_compare(op)) continue;
        dst.fill(guard);
        impl->run_scalar(op, dst.data(), a.data(), b[3], dense(1, n));
        for (int i = 0; i < kMaxLanes + 8; ++i) {
          const Float16 want = i < n ? reference(op, a[i], b[3]) : guard;
          ASSERT_EQ(dst[i].bits(), want.bits())
              << impl->name << " scalar " << name(op) << " n=" << n
              << " lane " << i;
        }
      }
    }
  }
}

TEST(Fp16Lanes, ReadsEveryLaneBeforeWritingAny) {
  // A destination 1 and 9 lanes ahead of a source within one call: every
  // lane must see the source as it was before the call. Lane by lane, the
  // 1-ahead case would smear lane 0 across the whole range.
  for (const int ahead : {1, 9}) {
    for (const int n : {16, 37, 128}) {
      std::array<Float16, kMaxLanes + 16> init{};
      for (int i = 0; i < kMaxLanes + 16; ++i) {
        init[i] = Float16(static_cast<float>((i * 7) % 23) - 9.0f);
      }
      const std::array<Float16, kMaxLanes + 16> other = init;
      const auto expect_all_reads_first = [&](const char* what, Op op,
                                              const auto& call, bool scalar) {
        std::array<Float16, kMaxLanes + 16> buf = init;
        call(buf.data() + ahead, buf.data());
        for (int i = 0; i < n; ++i) {
          const Float16 b = scalar ? other[5] : other[i];
          const Float16 want = reference(op, init[i], b);
          ASSERT_EQ(buf[ahead + i].bits(), want.bits())
              << what << " " << name(op) << " ahead=" << ahead << " n=" << n
              << " lane " << i;
        }
      };
      for (const ArithImpl* impl : arith_impls()) {
        for (const Op op : {Op::kAdd, Op::kSub, Op::kMul, Op::kDiv, Op::kMax,
                            Op::kMin, Op::kEq}) {
          expect_all_reads_first(
              impl->name, op,
              [&](Float16* d, const Float16* a) {
                impl->run(op, d, a, other.data(), dense(1, n));
              },
              false);
          if (is_compare(op)) continue;
          expect_all_reads_first(
              impl->name, op,
              [&](Float16* d, const Float16* a) {
                impl->run_scalar(op, d, a, other[5], dense(1, n));
              },
              true);
        }
      }
    }
  }
}

TEST(Fp16Lanes, DestinationMayBeTheSecondSource) {
  // dst == b exactly, with a elsewhere: each lane reads and writes only
  // its own index, so no copy is needed and the result is a[i] op b[i].
  std::array<Float16, kMaxLanes> a{}, b{};
  for (int i = 0; i < kMaxLanes; ++i) {
    a[i] = Float16(static_cast<float>(i) - 60.0f);
    b[i] = Float16(static_cast<float>(i % 9) + 0.5f);
  }
  for (const ArithImpl* impl : arith_impls()) {
    for (const Op op : {Op::kAdd, Op::kSub, Op::kMul, Op::kDiv, Op::kMax,
                        Op::kMin, Op::kEq}) {
      std::array<Float16, kMaxLanes> d = b;
      impl->run(op, d.data(), a.data(), d.data(), dense(1, kMaxLanes));
      for (int i = 0; i < kMaxLanes; ++i) {
        ASSERT_EQ(d[i].bits(), reference(op, a[i], b[i]).bits())
            << impl->name << " " << name(op) << " lane " << i;
      }
    }
  }
}

// --- Whole instructions ---------------------------------------------------

// One row call's operand layout in the sweep below: where the destination
// sits relative to the sources.
enum class Layout : std::uint8_t {
  kDisjoint,
  kDstIsA,           // dst == a, row for row (dst stride = a stride)
  kDstIsB,           // dst == b, row for row
  kDstAtAOwnStride,  // dst == a at row 0, each with its own stride
  kDstNearA,         // dst = a + offset
  kDstNearB,         // dst = b + offset
  kReduction,        // dst == a, both stride 0: the reduction idiom
  kCount,
};

const char* name(Layout l) {
  switch (l) {
    case Layout::kDisjoint: return "disjoint";
    case Layout::kDstIsA: return "dst==a";
    case Layout::kDstIsB: return "dst==b";
    case Layout::kDstAtAOwnStride: return "dst@a";
    case Layout::kDstNearA: return "dst=a+off";
    case Layout::kDstNearB: return "dst=b+off";
    case Layout::kReduction: return "reduction";
    case Layout::kCount: break;
  }
  return "?";
}

// The row semantics of sim/fp16_lanes.h spelled out: rows in order, each
// row's operand lanes copied before any of its destination lanes is
// written. `scalar` replaces b when the op is a broadcast.
void per_row_oracle(Op op, Float16* dst, const Float16* a, const Float16* b,
                    const Float16* scalar, const Rows& r) {
  for (int row = 0; row < r.count; ++row) {
    Float16 x[kMaxLanes], y[kMaxLanes];
    for (int i = 0; i < r.lanes; ++i) {
      x[i] = a[row * r.a_stride + i];
      y[i] = scalar != nullptr ? *scalar : b[row * r.b_stride + i];
    }
    for (int i = 0; i < r.lanes; ++i) {
      dst[row * r.dst_stride + i] = reference(op, x[i], y[i]);
    }
  }
}

TEST(Fp16Lanes, RowCallsMatchThePerRowOracle) {
  // Seeded sweep of single row calls -- 1..255 rows of 1..128 lanes,
  // operand strides 0, 16, 128, 256 or the row width (all three the row
  // width in every third case, the layout that may run as one span), every
  // op and its broadcast form, and destinations that equal, miss, or
  // overlap a source at +-1, +-9 and +-128 lanes -- against the oracle
  // above, on every implementation. The whole buffer is compared, so a
  // write outside the instruction's lanes fails too.
  constexpr std::int64_t kRegion = 254 * 256 + 128 + 256;  // + offsets
  constexpr std::int64_t kA = 256, kB = kA + kRegion, kD = kB + kRegion;
  std::vector<Float16> init(static_cast<std::size_t>(kD + kRegion));
  std::mt19937 rng(20211);
  const std::vector<Float16> classes = operand_classes();
  for (Float16& v : init) {
    // Mostly ordinary values, so rounding and order matter; one in eight
    // from the special classes (zeros, subnormals, infinities, NaNs).
    v = rng() % 8 == 0 ? classes[rng() % classes.size()]
                       : Float16(static_cast<float>(
                             static_cast<int>(rng() % 2001) - 1000) /
                         64.0f);
  }
  const Op kOps[] = {Op::kAdd, Op::kSub, Op::kMul, Op::kDiv,
                     Op::kMax, Op::kMin, Op::kEq};
  const int kOffsets[] = {1, -1, 9, -9, 128, -128};
  constexpr int kCases = 1200;
  std::vector<Float16> got(init.size()), want(init.size());
  for (const ArithImpl* impl : arith_impls()) {
    std::mt19937 pick(7);  // the same cases for every implementation
    for (int c = 0; c < kCases; ++c) {
      const auto layout =
          static_cast<Layout>(c % static_cast<int>(Layout::kCount));
      Rows r;
      r.count = c % 11 == 0 ? (c % 22 == 0 ? 1 : 255)
                            : 1 + static_cast<int>(pick() % 255);
      r.lanes = c % 13 == 0 ? (c % 26 == 0 ? 1 : kMaxLanes)
                            : 1 + static_cast<int>(pick() % kMaxLanes);
      const auto stride = [&] {
        const std::int64_t choices[] = {0, 16, 128, 256, r.lanes};
        return choices[pick() % 5];
      };
      r.a_stride = stride();
      r.b_stride = stride();
      r.dst_stride = stride();
      if (c % 3 == 0) {  // rows contiguous in every operand: one span?
        r.a_stride = r.b_stride = r.dst_stride = r.lanes;
      }
      const bool scalar = pick() % 4 == 0;
      const Op op = scalar ? kOps[pick() % 4] : kOps[pick() % 7];
      const int offset = kOffsets[pick() % 6];
      std::int64_t d = kD;
      switch (layout) {
        case Layout::kDisjoint: break;
        case Layout::kDstIsA: d = kA; r.dst_stride = r.a_stride; break;
        case Layout::kDstIsB: d = kB; r.dst_stride = r.b_stride; break;
        case Layout::kDstAtAOwnStride: d = kA; break;
        case Layout::kDstNearA: d = kA + offset; break;
        case Layout::kDstNearB: d = kB + offset; break;
        case Layout::kReduction:
          d = kA;
          r.dst_stride = r.a_stride = 0;
          break;
        case Layout::kCount: break;
      }
      const Float16 s = init[pick() % init.size()];
      want = init;
      per_row_oracle(op, want.data() + d, want.data() + kA, want.data() + kB,
                     scalar ? &s : nullptr, r);
      got = init;
      if (scalar) {
        impl->run_scalar(op, got.data() + d, got.data() + kA, s, r);
      } else {
        impl->run(op, got.data() + d, got.data() + kA, got.data() + kB, r);
      }
      if (std::memcmp(got.data(), want.data(),
                      got.size() * sizeof(Float16)) == 0) {
        continue;
      }
      std::size_t i = 0;
      while (got[i].bits() == want[i].bits()) ++i;
      FAIL() << impl->name << " case " << c << ": " << (scalar ? "scalar " : "")
             << name(op) << " " << name(layout) << " offset " << offset
             << " rows " << r.count << " x " << r.lanes << " strides d/a/b "
             << r.dst_stride << "/" << r.a_stride << "/" << r.b_stride
             << ": element " << static_cast<std::int64_t>(i) - d
             << " from dst got 0x" << std::hex << got[i].bits() << " want 0x"
             << want[i].bits();
    }
  }
}

TEST(Fp16Lanes, FirstDispatchFromFourThreads) {
  // Pool lanes make the first vector instruction of a Device's first
  // launch on several threads at once; the once-per-process CPU check
  // must be race-free and give every thread the same implementation.
  // Under TSan this case runs alone, so these calls are the process's
  // first use of the dispatcher.
  std::array<const ArithImpl*, 4> seen{};
  std::array<std::uint64_t, 4> wrong{};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&seen, &wrong, t] {
        std::array<Float16, 2 * kMaxLanes> a{}, b{}, d{}, m{};
        for (int i = 0; i < 2 * kMaxLanes; ++i) {
          a[i] = Float16(static_cast<float>(i + t) * 0.5f);
          b[i] = Float16(static_cast<float>(i % 5) - 2.0f);
        }
        fp16_lanes::run(Op::kAdd, d.data(), a.data(), b.data(),
                        dense(2, kMaxLanes));
        fp16_lanes::run(Op::kMax, m.data(), a.data(), b.data(),
                        dense(2, kMaxLanes));
        for (int i = 0; i < 2 * kMaxLanes; ++i) {
          wrong[t] += d[i].bits() != (a[i] + b[i]).bits();
          wrong[t] += m[i].bits() != fmax16(a[i], b[i]).bits();
        }
        seen[t] = &fp16_lanes::active_arith();
      });
    }
  }
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(wrong[t], 0u) << "thread " << t;
    EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
  }
}

}  // namespace
}  // namespace davinci
