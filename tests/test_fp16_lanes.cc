// Tests for sim/fp16_lanes: both arithmetic implementations and the
// bits-domain max/min/eq against the scalar Float16 operators, fmax16,
// fmin16 and operator==, plus the module's lane-range and
// read-before-write contract.
#include "sim/fp16_lanes.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace davinci {
namespace {

using fp16_lanes::ArithImpl;
using fp16_lanes::kMaxLanes;
using fp16_lanes::Op;

// Signature shared by fp16_lanes::run and ArithImpl::run.
using LaneFn = void (*)(Op, Float16*, const Float16*, const Float16*, int);

// Call widths the sweeps cycle through: a full repeat, a width that is not
// a multiple of 8, and one C0 row.
constexpr int kWidths[] = {128, 37, 16};

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

// The arithmetic implementations this CPU can run: always the portable
// one, plus the F16C one when the CPU reports AVX2 and F16C.
std::vector<const ArithImpl*> arith_impls() {
  std::vector<const ArithImpl*> impls{&fp16_lanes::portable_arith()};
  if (fp16_lanes::f16c_arith() != nullptr) {
    impls.push_back(fp16_lanes::f16c_arith());
  }
  return impls;
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
  LaneFn fn;
};

// Arithmetic ops run on every implementation, max/min/eq through run().
std::vector<Check> checks_of(std::initializer_list<Op> ops) {
  std::vector<Check> checks;
  for (const Op op : ops) {
    if (op == Op::kMax || op == Op::kMin || op == Op::kEq) {
      checks.push_back({"bits-domain", op, fp16_lanes::run});
      continue;
    }
    for (const ArithImpl* impl : arith_impls()) {
      checks.push_back({impl->name, op, impl->run});
    }
  }
  return checks;
}

// Checks every pair (a, b) with a in [lo, hi) and b in `bs` against the
// references of kOps, which are computed together so that they can share
// the pair's operand conversions. The lanes of one call share a and walk
// through b, with call widths cycling through kWidths. Returns one
// Mismatches per check.
template <Op... kOps>
std::vector<Mismatches> check_pairs(const std::vector<Check>& checks,
                                    std::uint32_t lo, std::uint32_t hi,
                                    const std::vector<Float16>& bs) {
  std::vector<Mismatches> m(checks.size());
  std::array<Float16, kMaxLanes> a{}, got{};
  std::array<std::array<Float16, kMaxLanes>, 7> want{};  // by Op
  std::size_t w = 0;
  for (std::uint32_t x = lo; x < hi; ++x) {
    a.fill(Float16::from_bits(static_cast<std::uint16_t>(x)));
    for (std::size_t j = 0; j < bs.size();) {
      const int n = static_cast<int>(
          std::min<std::size_t>(kWidths[w++ % 3], bs.size() - j));
      const Float16* const b = bs.data() + j;
      for (int i = 0; i < n; ++i) {
        ((want[static_cast<int>(kOps)][i] = reference<kOps>(a[0], b[i])), ...);
      }
      for (std::size_t c = 0; c < checks.size(); ++c) {
        checks[c].fn(checks[c].op, got.data(), a.data(), b, n);
        const auto& ref = want[static_cast<int>(checks[c].op)];
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
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("f16c")) {
    ASSERT_NE(fp16_lanes::f16c_arith(), nullptr);
    EXPECT_EQ(&fp16_lanes::active_arith(), fp16_lanes::f16c_arith());
    return;
  }
#endif
  EXPECT_EQ(fp16_lanes::f16c_arith(), nullptr);
  EXPECT_EQ(&fp16_lanes::active_arith(), &fp16_lanes::portable_arith());
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
      std::array<Float16, kMaxLanes> got{};
      std::size_t w = 0;
      for (const Float16 s : classes) {
        for (std::size_t j = 0; j < all.size();) {
          const int n = static_cast<int>(
              std::min<std::size_t>(kWidths[w++ % 3], all.size() - j));
          impl->run_scalar(op, got.data(), all.data() + j, s, n);
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
  // Widths 0..128, including every width that is not a multiple of 8:
  // only lanes [0, n) of the destination change.
  const Float16 guard = Float16::from_bits(0x5A5A);
  std::array<Float16, kMaxLanes + 8> a{}, b{}, dst{};
  for (int i = 0; i < kMaxLanes + 8; ++i) {
    a[i] = Float16(static_cast<float>(i) * 0.75f - 40.0f);
    b[i] = Float16(static_cast<float>(i % 11) - 3.5f);
  }
  for (const ArithImpl* impl : arith_impls()) {
    for (int n = 0; n <= kMaxLanes; ++n) {
      for (const Op op : {Op::kAdd, Op::kSub, Op::kMul, Op::kDiv}) {
        dst.fill(guard);
        impl->run(op, dst.data(), a.data(), b.data(), n);
        for (int i = 0; i < kMaxLanes + 8; ++i) {
          const Float16 want = i < n ? reference(op, a[i], b[i]) : guard;
          ASSERT_EQ(dst[i].bits(), want.bits())
              << impl->name << " " << name(op) << " n=" << n << " lane " << i;
        }
        dst.fill(guard);
        impl->run_scalar(op, dst.data(), a.data(), b[3], n);
        for (int i = 0; i < kMaxLanes + 8; ++i) {
          const Float16 want = i < n ? reference(op, a[i], b[3]) : guard;
          ASSERT_EQ(dst[i].bits(), want.bits())
              << impl->name << " scalar " << name(op) << " n=" << n
              << " lane " << i;
        }
      }
    }
  }
  for (int n = 0; n <= kMaxLanes; ++n) {
    for (const Op op : {Op::kMax, Op::kMin, Op::kEq}) {
      dst.fill(guard);
      fp16_lanes::run(op, dst.data(), a.data(), b.data(), n);
      for (int i = 0; i < kMaxLanes + 8; ++i) {
        const Float16 want = i < n ? reference(op, a[i], b[i]) : guard;
        ASSERT_EQ(dst[i].bits(), want.bits())
            << name(op) << " n=" << n << " lane " << i;
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
        for (const Op op : {Op::kAdd, Op::kSub, Op::kMul, Op::kDiv}) {
          expect_all_reads_first(
              impl->name, op,
              [&](Float16* d, const Float16* a) {
                impl->run(op, d, a, other.data(), n);
              },
              false);
          expect_all_reads_first(
              impl->name, op,
              [&](Float16* d, const Float16* a) {
                impl->run_scalar(op, d, a, other[5], n);
              },
              true);
        }
      }
      for (const Op op : {Op::kMax, Op::kMin, Op::kEq}) {
        expect_all_reads_first(
            "bits-domain", op,
            [&](Float16* d, const Float16* a) {
              fp16_lanes::run(op, d, a, other.data(), n);
            },
            false);
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
  for (const Op op : {Op::kAdd, Op::kSub, Op::kMul, Op::kDiv, Op::kMax,
                      Op::kMin, Op::kEq}) {
    std::array<Float16, kMaxLanes> d = b;
    fp16_lanes::run(op, d.data(), a.data(), d.data(), kMaxLanes);
    for (int i = 0; i < kMaxLanes; ++i) {
      ASSERT_EQ(d[i].bits(), reference(op, a[i], b[i]).bits())
          << name(op) << " lane " << i;
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
        std::array<Float16, kMaxLanes> a{}, b{}, d{};
        for (int i = 0; i < kMaxLanes; ++i) {
          a[i] = Float16(static_cast<float>(i + t) * 0.5f);
          b[i] = Float16(static_cast<float>(i % 5) - 2.0f);
        }
        fp16_lanes::run(Op::kAdd, d.data(), a.data(), b.data(), kMaxLanes);
        for (int i = 0; i < kMaxLanes; ++i) {
          wrong[t] += d[i].bits() != (a[i] + b[i]).bits();
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
