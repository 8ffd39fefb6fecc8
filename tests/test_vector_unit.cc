// Unit tests for the Vector Unit: instruction semantics, mask gating,
// repeat strides, the reduction idiom, and cycle accounting.
#include "sim/vector_unit.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "arch/arch_config.h"
#include "arch/cost_model.h"
#include "common/check.h"
#include "sim/ai_core.h"
#include "sim/fault.h"
#include "sim/scratch.h"

namespace davinci {
namespace {

class VectorUnitTest : public ::testing::Test {
 protected:
  VectorUnitTest()
      : ub_(BufferKind::kUnified, 64 * 1024),
        vec_(arch_, cost_, &ledger_) {}

  Span<Float16> alloc_filled(std::int64_t n, float v) {
    auto s = ub_.alloc<Float16>(n);
    for (std::int64_t i = 0; i < n; ++i) s.at(i) = Float16(v);
    return s;
  }

  ArchConfig arch_;
  CostModel cost_;
  Ledger ledger_;
  ScratchBuffer ub_;
  VectorUnit vec_;
};

TEST_F(VectorUnitTest, MaskFirstN) {
  EXPECT_EQ(VecMask::first_n(0).count(), 0);
  EXPECT_EQ(VecMask::first_n(16).count(), 16);
  EXPECT_EQ(VecMask::first_n(64).count(), 64);
  EXPECT_EQ(VecMask::first_n(100).count(), 100);
  EXPECT_EQ(VecMask::first_n(128).count(), 128);
  EXPECT_EQ(VecMask::full().count(), 128);
  EXPECT_TRUE(VecMask::first_n(17).lane(16));
  EXPECT_FALSE(VecMask::first_n(17).lane(17));
  EXPECT_TRUE(VecMask::first_n(128).lane(127));
  EXPECT_THROW(VecMask::first_n(129), Error);
}

TEST_F(VectorUnitTest, BinaryOpsElementwise) {
  auto a = alloc_filled(128, 3.0f);
  auto b = alloc_filled(128, 4.0f);
  auto d = ub_.alloc<Float16>(128);
  vec_.binary(VecOp::kAdd, d, a, b, VecConfig::flat(1));
  EXPECT_EQ(d.at(0).to_float(), 7.0f);
  EXPECT_EQ(d.at(127).to_float(), 7.0f);
  vec_.binary(VecOp::kMul, d, a, b, VecConfig::flat(1));
  EXPECT_EQ(d.at(50).to_float(), 12.0f);
  vec_.binary(VecOp::kSub, d, a, b, VecConfig::flat(1));
  EXPECT_EQ(d.at(3).to_float(), -1.0f);
  vec_.binary(VecOp::kMax, d, a, b, VecConfig::flat(1));
  EXPECT_EQ(d.at(9).to_float(), 4.0f);
  vec_.binary(VecOp::kMin, d, a, b, VecConfig::flat(1));
  EXPECT_EQ(d.at(9).to_float(), 3.0f);
  vec_.binary(VecOp::kDiv, d, b, a, VecConfig::flat(1));
  EXPECT_NEAR(d.at(0).to_float(), 4.0f / 3.0f, 1e-3f);
}

TEST_F(VectorUnitTest, MaskGatesLanes) {
  auto a = alloc_filled(128, 1.0f);
  auto b = alloc_filled(128, 2.0f);
  auto d = alloc_filled(128, -9.0f);
  VecConfig cfg = VecConfig::flat(1);
  cfg.mask = VecMask::first_n(16);
  vec_.binary(VecOp::kAdd, d, a, b, cfg);
  EXPECT_EQ(d.at(15).to_float(), 3.0f);
  EXPECT_EQ(d.at(16).to_float(), -9.0f);  // untouched
}

TEST_F(VectorUnitTest, RepeatAdvancesByStrides) {
  auto a = alloc_filled(256, 1.0f);
  auto b = alloc_filled(256, 2.0f);
  auto d = alloc_filled(256, 0.0f);
  VecConfig cfg = VecConfig::flat(2);  // default strides 128
  vec_.binary(VecOp::kAdd, d, a, b, cfg);
  EXPECT_EQ(d.at(0).to_float(), 3.0f);
  EXPECT_EQ(d.at(255).to_float(), 3.0f);
}

TEST_F(VectorUnitTest, ReductionIdiomWithZeroDstStride) {
  // dst stride 0 with dst == src0 accumulates across repeats -- the
  // "vmax uses repetition to obtain the maximum across Kw" idiom.
  auto src = ub_.alloc<Float16>(3 * 16);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 16; ++c) {
      src.at(r * 16 + c) = Float16(static_cast<float>(r == 1 ? 10 + c : c));
    }
  }
  auto acc = alloc_filled(16, -100.0f);
  VecConfig cfg;
  cfg.mask = VecMask::first_n(16);
  cfg.repeat = 3;
  cfg.dst_rep_stride = 0;
  cfg.src0_rep_stride = 0;
  cfg.src1_rep_stride = 16;
  vec_.binary(VecOp::kMax, acc, acc, src, cfg);
  for (int c = 0; c < 16; ++c) {
    EXPECT_EQ(acc.at(c).to_float(), static_cast<float>(10 + c));
  }
}

TEST_F(VectorUnitTest, DupAddsMuls) {
  auto d = ub_.alloc<Float16>(128);
  vec_.dup(d, Float16(5.0f), VecConfig::flat(1));
  EXPECT_EQ(d.at(77).to_float(), 5.0f);
  auto s = alloc_filled(128, 3.0f);
  vec_.adds(d, s, Float16(2.0f), VecConfig::flat(1));
  EXPECT_EQ(d.at(0).to_float(), 5.0f);
  vec_.muls(d, s, Float16(4.0f), VecConfig::flat(1));
  EXPECT_EQ(d.at(0).to_float(), 12.0f);
}

TEST_F(VectorUnitTest, CmpvEqProducesIndicator) {
  auto a = alloc_filled(128, 1.0f);
  auto b = alloc_filled(128, 1.0f);
  b.at(5) = Float16(2.0f);
  auto d = ub_.alloc<Float16>(128);
  vec_.cmpv_eq(d, a, b, VecConfig::flat(1));
  EXPECT_EQ(d.at(0).to_float(), 1.0f);
  EXPECT_EQ(d.at(5).to_float(), 0.0f);
}

TEST_F(VectorUnitTest, SelSelectsByCondition) {
  auto cond = alloc_filled(128, 0.0f);
  cond.at(2) = Float16(1.0f);
  auto a = alloc_filled(128, 10.0f);
  auto b = alloc_filled(128, 20.0f);
  auto d = ub_.alloc<Float16>(128);
  vec_.sel(d, cond, a, b, VecConfig::flat(1));
  EXPECT_EQ(d.at(2).to_float(), 10.0f);
  EXPECT_EQ(d.at(3).to_float(), 20.0f);
}

TEST_F(VectorUnitTest, CycleAccounting) {
  auto a = alloc_filled(256, 1.0f);
  auto d = ub_.alloc<Float16>(256);
  VecConfig cfg = VecConfig::flat(2);
  cfg.mask = VecMask::first_n(16);
  vec_.binary(VecOp::kAdd, d, a, a, cfg);
  EXPECT_EQ(ledger_.profile.vec.instrs, 1);
  EXPECT_EQ(ledger_.profile.vec.slots_capacity, 2 * 128);  // two repeats
  EXPECT_EQ(ledger_.profile.vec.slots_used, 32);
  EXPECT_EQ(ledger_.sched.busy(Pipe::kVector), cost_.vec_issue_overhead + 2);
  EXPECT_NEAR(ledger_.profile.vec_lane_utilization(), 16.0 / 128.0, 1e-9);
}

TEST_F(VectorUnitTest, RejectsNonUbOperands) {
  ScratchBuffer l1(BufferKind::kL1, 1024);
  auto bad = l1.alloc<Float16>(128);
  auto ok = ub_.alloc<Float16>(128);
  EXPECT_THROW(vec_.binary(VecOp::kAdd, ok, ok, bad, VecConfig::flat(1)),
               Error);
  EXPECT_THROW(vec_.dup(bad, Float16(), VecConfig::flat(1)), Error);
}

TEST_F(VectorUnitTest, RejectsRepeatOutOfRange) {
  auto a = ub_.alloc<Float16>(128);
  VecConfig cfg = VecConfig::flat(256);  // max_repeat is 255
  EXPECT_THROW(vec_.dup(a, Float16(), cfg), Error);
  cfg.repeat = 0;
  EXPECT_THROW(vec_.dup(a, Float16(), cfg), Error);
}

TEST_F(VectorUnitTest, OutOfBoundsActiveLaneThrows) {
  auto a = ub_.alloc<Float16>(100);  // < 128
  EXPECT_THROW(vec_.dup(a, Float16(), VecConfig::flat(1)), Error);
  // But with a mask covering only the first 100 lanes it is fine.
  VecConfig cfg = VecConfig::flat(1);
  cfg.mask = VecMask::first_n(100);
  vec_.dup(a, Float16(3.0f), cfg);
  EXPECT_EQ(a.at(99).to_float(), 3.0f);
}

// The prefix-mask fast path orders vmax/vmin by a signed-magnitude bits
// key instead of converting to float. Sweep a value set covering every
// encoding class (zeros of both signs, subnormals, normals, infinities,
// NaN) against the fmax16/fmin16 reference -- results must match
// bit-for-bit, including the which-operand-wins tie rule for -0/+0 and
// the "number wins" NaN rule.
TEST_F(VectorUnitTest, MaxMinFastPathMatchesReferenceOnSpecialValues) {
  const std::uint16_t specials[] = {
      0x0000, 0x8000,          // +0, -0
      0x0001, 0x8001, 0x03FF,  // subnormals
      0x0400, 0x8400,          // smallest normals
      0x3C00, 0xBC00,          // +-1
      0x7BFF, 0xFBFF,          // +-max finite
      0x7C00, 0xFC00,          // +-inf
      0x7C01, 0x7E00, 0xFE00,  // NaNs
  };
  const int n = static_cast<int>(std::size(specials));
  auto a = ub_.alloc<Float16>(128);
  auto b = ub_.alloc<Float16>(128);
  auto d = ub_.alloc<Float16>(128);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const Float16 x = Float16::from_bits(specials[i]);
      const Float16 y = Float16::from_bits(specials[j]);
      for (int k = 0; k < 128; ++k) {
        a.at(k) = x;
        b.at(k) = y;
      }
      vec_.binary(VecOp::kMax, d, a, b, VecConfig::flat(1));
      EXPECT_EQ(d.at(0).bits(), fmax16(x, y).bits())
          << "vmax " << specials[i] << " vs " << specials[j];
      vec_.binary(VecOp::kMin, d, a, b, VecConfig::flat(1));
      EXPECT_EQ(d.at(0).bits(), fmin16(x, y).bits())
          << "vmin " << specials[i] << " vs " << specials[j];
    }
  }
}

// One Vector Unit instruction of the sweep below.
enum class Instr : std::uint8_t {
  kBinary, kAdds, kMuls, kCmpvEq, kDup, kCount
};

// The instruction semantics of sim/vector_unit.h spelled out, repeat by
// repeat and active lane by active lane, on the layouts kernels issue (a
// destination equal to a source, or disjoint from it), where every lane
// reads its operands before it writes.
void lane_by_lane(Instr instr, VecOp op, Float16* dst, const Float16* a,
                  const Float16* b, Float16 s, const VecConfig& cfg) {
  for (int rep = 0; rep < cfg.repeat; ++rep) {
    for (int lane = 0; lane < 128; ++lane) {
      if (!cfg.mask.lane(lane)) continue;
      const Float16 x = a[rep * cfg.src0_rep_stride + lane];
      const Float16 y = b[rep * cfg.src1_rep_stride + lane];
      Float16& d = dst[rep * cfg.dst_rep_stride + lane];
      switch (instr) {
        case Instr::kAdds: d = x + s; break;
        case Instr::kMuls: d = x * s; break;
        case Instr::kCmpvEq: d = Float16(x == y ? 1.0f : 0.0f); break;
        case Instr::kDup: d = s; break;
        case Instr::kBinary:
          switch (op) {
            case VecOp::kMax: d = fmax16(x, y); break;
            case VecOp::kMin: d = fmin16(x, y); break;
            case VecOp::kAdd: d = x + y; break;
            case VecOp::kSub: d = x - y; break;
            case VecOp::kMul: d = x * y; break;
            case VecOp::kDiv: d = x / y; break;
          }
          break;
        case Instr::kCount: break;
      }
    }
  }
}

TEST_F(VectorUnitTest, WholeInstructionsMatchLaneByLane) {
  // Seeded sweep: every instruction form, 1..255 repeats, repeat strides
  // 0, 16, 128 or 256 per operand, prefix and scattered masks, and a
  // destination that is disjoint, src0 itself or the stride-0 reduction
  // accumulator. Values are multiples of 1/7, so sums and products round
  // and the reduction order shows in the bits.
  ScratchBuffer ub(BufferKind::kUnified, 1 << 20);
  constexpr std::int64_t kLen = 254 * 256 + 128;
  Span<Float16> a = ub.alloc<Float16>(kLen);
  Span<Float16> b = ub.alloc<Float16>(kLen);
  Span<Float16> d = ub.alloc<Float16>(kLen);
  std::mt19937 rng(2021);
  const auto value = [&] {
    return Float16(static_cast<float>(static_cast<int>(rng() % 64) - 32) /
                   7.0f);
  };
  std::vector<Float16> a0(kLen), b0(kLen), d0(kLen);
  for (std::int64_t i = 0; i < kLen; ++i) {
    a0[i] = value();
    b0[i] = value();
    d0[i] = value();
  }
  const VecOp kOps[] = {VecOp::kMax, VecOp::kMin, VecOp::kAdd,
                        VecOp::kSub, VecOp::kMul, VecOp::kDiv};
  const std::int64_t kStrides[] = {0, 16, 128, 256};
  for (int c = 0; c < 600; ++c) {
    const auto instr = static_cast<Instr>(c % static_cast<int>(Instr::kCount));
    const VecOp op = kOps[rng() % 6];
    VecConfig cfg;
    cfg.repeat = c % 7 == 0 ? 255 : 1 + static_cast<int>(rng() % 255);
    if (c % 3 == 0) {
      cfg.mask.lo = (std::uint64_t{rng()} << 32) | rng();
      cfg.mask.hi = (std::uint64_t{rng()} << 32) | rng();
    } else {
      cfg.mask = VecMask::first_n(1 + static_cast<int>(rng() % 128));
    }
    cfg.dst_rep_stride = kStrides[rng() % 4];
    cfg.src0_rep_stride = kStrides[rng() % 4];
    cfg.src1_rep_stride = kStrides[rng() % 4];
    const int layout = (c / 5) % 3;  // 0 disjoint, 1 dst == src0, 2 reduction
    if (layout == 1) cfg.dst_rep_stride = cfg.src0_rep_stride;
    if (layout == 2) cfg.dst_rep_stride = cfg.src0_rep_stride = 0;
    const Float16 s = value();
    std::copy(a0.begin(), a0.end(), a.data());
    std::copy(b0.begin(), b0.end(), b.data());
    std::copy(d0.begin(), d0.end(), d.data());
    std::vector<Float16> wa = a0, wd = d0;
    Float16* const want = layout == 0 ? wd.data() : wa.data();
    lane_by_lane(instr, op, want, wa.data(), b0.data(), s, cfg);
    Span<Float16> dst = layout == 0 ? d : a;
    switch (instr) {
      case Instr::kBinary: vec_.binary(op, dst, a, b, cfg); break;
      case Instr::kAdds: vec_.adds(dst, a, s, cfg); break;
      case Instr::kMuls: vec_.muls(dst, a, s, cfg); break;
      case Instr::kCmpvEq: vec_.cmpv_eq(dst, a, b, cfg); break;
      case Instr::kDup: vec_.dup(dst, s, cfg); break;
      case Instr::kCount: break;
    }
    for (std::int64_t i = 0; i < kLen; ++i) {
      ASSERT_EQ(dst.at(i).bits(), want[i].bits())
          << "case " << c << " instr " << static_cast<int>(instr) << " "
          << to_string(op) << " layout " << layout << " repeat " << cfg.repeat
          << " strides " << cfg.dst_rep_stride << "/" << cfg.src0_rep_stride
          << "/" << cfg.src1_rep_stride << " element " << i;
    }
  }
}

// The instruction-run oracle: two AI Cores receive the same instructions,
// `run` as instruction runs and `one` one issue at a time, each issue
// followed by its scalar-loop iterations.
class RunOracle {
 public:
  // Elements per operand region; every run of the sweeps fits one.
  static constexpr std::int64_t kLen = 40000;

  enum class Instr : std::uint8_t { kAdd, kMax, kMul, kCmpvEq };

  struct Case {
    Instr instr = Instr::kAdd;
    VecConfig cfg;
    VecRun run;
    // Operands as (region, offset): regions 0..2 are a, b, d.
    int dst_region = 2, src0_region = 0, src1_region = 1;
    std::int64_t dst_offset = 0;
  };

  RunOracle() : run_(0, big_ub(), CostModel{}), one_(1, big_ub(), CostModel{}) {
    for (AiCore* core : {&run_, &one_}) {
      for (int r = 0; r < 3; ++r) {
        regions_[core == &one_][r] = core->ub().alloc<Float16>(kLen);
      }
    }
  }

  AiCore& run_core() { return run_; }
  AiCore& one_core() { return one_; }

  // Gives both cores the same region contents.
  void fill(std::mt19937& rng) {
    for (int r = 0; r < 3; ++r) {
      for (std::int64_t i = 0; i < kLen; ++i) {
        const Float16 v(static_cast<float>(static_cast<int>(rng() % 64) - 32) /
                        7.0f);
        regions_[0][r].at(i) = v;
        regions_[1][r].at(i) = v;
      }
    }
  }

  // Issues `c` on both cores; a TransientFault each raises is returned as
  // its message.
  void issue(const Case& c, std::string* run_fault, std::string* one_fault) {
    try {
      issue_on(run_, 0, c, c.run);
    } catch (const TransientFault& e) {
      *run_fault = e.what();
    }
    try {
      VecRun single;
      for (int i = 0; i < c.run.count; ++i) {
        Case at = c;
        at.dst_offset += i * c.run.dst_step;
        issue_on(one_, 1, at, single, i * c.run.src0_step,
                 i * c.run.src1_step);
        if (c.run.scalar_iters > 0) one_.scalar_loop(c.run.scalar_iters);
      }
    } catch (const TransientFault& e) {
      *one_fault = e.what();
    }
  }

  // Every byte of the regions and everything the cores' ledgers record.
  void expect_same(const std::string& what) {
    for (int r = 0; r < 3; ++r) {
      ASSERT_EQ(std::memcmp(regions_[0][r].data(), regions_[1][r].data(),
                            kLen * sizeof(Float16)),
                0)
          << what << ": region " << r;
    }
    const PipeScheduler& a = run_.sched();
    const PipeScheduler& b = one_.sched();
    ASSERT_EQ(a.intervals().size(), b.intervals().size()) << what;
    EXPECT_TRUE(a.intervals() == b.intervals()) << what;
    for (int p = 0; p < PipeScheduler::kNumPipes; ++p) {
      const Pipe pipe = static_cast<Pipe>(p);
      EXPECT_EQ(a.busy(pipe), b.busy(pipe)) << what << " " << to_string(pipe);
      EXPECT_EQ(a.wait(pipe), b.wait(pipe)) << what << " " << to_string(pipe);
      EXPECT_EQ(a.flag(pipe), b.flag(pipe)) << what << " " << to_string(pipe);
      EXPECT_EQ(a.ready(pipe), b.ready(pipe)) << what << " " << to_string(pipe);
    }
    EXPECT_EQ(a.serial(), b.serial()) << what;
    EXPECT_EQ(a.makespan(), b.makespan()) << what;
    EXPECT_TRUE(run_.profile() == one_.profile()) << what;
    EXPECT_TRUE(run_.counts() == one_.counts()) << what;
    ASSERT_EQ(run_.trace().events().size(), one_.trace().events().size())
        << what;
    EXPECT_TRUE(run_.trace().events() == one_.trace().events()) << what;
  }

 private:
  static ArchConfig big_ub() {
    ArchConfig arch;
    arch.ub_bytes = 1 << 20;
    return arch;
  }

  void issue_on(AiCore& core, int side, const Case& c, const VecRun& run,
                std::int64_t src0_skip = 0, std::int64_t src1_skip = 0) {
    Span<Float16>* const regs = regions_[side];
    Span<Float16> dst = regs[c.dst_region].drop_front(c.dst_offset);
    Span<Float16> src0 = regs[c.src0_region].drop_front(src0_skip);
    Span<Float16> src1 = regs[c.src1_region].drop_front(src1_skip);
    switch (c.instr) {
      case Instr::kAdd:
        core.vec().binary(VecOp::kAdd, dst, src0, src1, c.cfg, run);
        return;
      case Instr::kMax:
        core.vec().binary(VecOp::kMax, dst, src0, src1, c.cfg, run);
        return;
      case Instr::kMul:
        core.vec().binary(VecOp::kMul, dst, src0, src1, c.cfg, run);
        return;
      case Instr::kCmpvEq:
        core.vec().cmpv_eq(dst, src0, src1, c.cfg, run);
        return;
    }
  }

  AiCore run_;
  AiCore one_;
  Span<Float16> regions_[2][3];
};

// A seeded run of the sweeps below: an op, 1..max_count issues of repeat
// 1..8 over 1..128 prefix lanes, each operand stepping 0, below, at or
// above the lane count, and a destination that is disjoint from the
// sources, src0 itself, the stride-0 reduction accumulator, or aliasing a
// source at an offset.
RunOracle::Case random_case(std::mt19937& rng, int max_count) {
  RunOracle::Case c;
  c.instr = static_cast<RunOracle::Instr>(rng() % 4);
  const int lanes = rng() % 4 == 0 ? 16 : 1 + static_cast<int>(rng() % 128);
  c.cfg.mask = VecMask::first_n(lanes);
  c.cfg.repeat = 1 + static_cast<int>(rng() % 8);
  const std::int64_t strides[] = {0, 16, 128, 256, lanes};
  c.cfg.dst_rep_stride = strides[rng() % 5];
  c.cfg.src0_rep_stride = strides[rng() % 5];
  c.cfg.src1_rep_stride = strides[rng() % 5];
  const auto step = [&]() -> std::int64_t {
    switch (rng() % 4) {
      case 0: return 0;
      case 1: return lanes / 2;  // issues overlap
      case 2: return lanes;
      default: return lanes + 16 * static_cast<int>(1 + rng() % 3);
    }
  };
  c.run.count = rng() % 3 == 0 ? 1 + static_cast<int>(rng() % 4)
                               : 1 + static_cast<int>(rng() % max_count);
  c.run.dst_step = step();
  c.run.src0_step = step();
  c.run.src1_step = step();
  c.run.scalar_iters = static_cast<int>(rng() % 3);
  const std::int64_t offsets[] = {1, 9, 16, 128};
  switch (rng() % 5) {
    case 0:  // disjoint
      break;
    case 1:  // dst == src0
      c.dst_region = c.src0_region;
      c.cfg.dst_rep_stride = c.cfg.src0_rep_stride;
      c.run.dst_step = c.run.src0_step;
      break;
    case 2:  // the stride-0 reduction idiom
      c.dst_region = c.src0_region;
      c.cfg.dst_rep_stride = c.cfg.src0_rep_stride = 0;
      c.run.dst_step = c.run.src0_step;
      break;
    case 3:  // dst aliasing src0 at an offset
      c.dst_region = c.src0_region;
      c.dst_offset = offsets[rng() % 4];
      break;
    default:  // dst aliasing src1 at an offset
      c.dst_region = c.src1_region;
      c.dst_offset = offsets[rng() % 4];
      break;
  }
  return c;
}

std::string describe(const RunOracle::Case& c, int index) {
  return "case " + std::to_string(index) + ": instr " +
         std::to_string(static_cast<int>(c.instr)) + " lanes " +
         std::to_string(c.cfg.mask.count()) + " repeat " +
         std::to_string(c.cfg.repeat) + " strides " +
         std::to_string(c.cfg.dst_rep_stride) + "/" +
         std::to_string(c.cfg.src0_rep_stride) + "/" +
         std::to_string(c.cfg.src1_rep_stride) + " count " +
         std::to_string(c.run.count) + " steps " +
         std::to_string(c.run.dst_step) + "/" +
         std::to_string(c.run.src0_step) + "/" +
         std::to_string(c.run.src1_step) + " scalar " +
         std::to_string(c.run.scalar_iters) + " dst region " +
         std::to_string(c.dst_region) + "+" + std::to_string(c.dst_offset);
}

TEST_F(VectorUnitTest, RunsMatchIssuingOneByOne) {
  // Each case also places the run differently on the timeline: at the
  // serial frontier, behind another pipe's interval, or inside a stage on
  // the Vector or another pipe with a dependency; every other case is
  // traced.
  RunOracle oracle;
  std::mt19937 rng(2023);
  for (int i = 0; i < 400; ++i) {
    const RunOracle::Case c = random_case(rng, 200);
    const std::string what = describe(c, i);
    const int context = static_cast<int>(rng() % 4);
    oracle.fill(rng);
    for (AiCore* core : {&oracle.run_core(), &oracle.one_core()}) {
      core->reset_stats();
      core->trace().clear();
      if (i % 2 == 0) {
        core->trace().enable();
      } else {
        core->trace().disable();
      }
      if (context >= 1) core->sched().issue(Pipe::kMteIn, 37);
      if (context == 2) core->begin_stage(Pipe::kVector, 50);
      if (context == 3) core->begin_stage(Pipe::kScu, 20);
    }
    std::string run_fault, one_fault;
    oracle.issue(c, &run_fault, &one_fault);
    EXPECT_EQ(run_fault, "");
    EXPECT_EQ(one_fault, "");
    if (context >= 2) {
      EXPECT_EQ(oracle.run_core().end_stage(), oracle.one_core().end_stage())
          << what;
    }
    oracle.expect_same(what);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST_F(VectorUnitTest, FaultedRunsMatchIssuingOneByOne) {
  // Under a vec_fault plan each issue draws once, in order: a run that is
  // hit books the issues up to and including the hit one (not its scalar
  // iterations) and raises the same TransientFault one-at-a-time issue
  // raises, leaving the same bytes, cycles and fault counts.
  const FaultPlan plan = FaultPlan::parse("vec_fault:0.01", 5);
  CoreFaultState run_faults(plan, 0), one_faults(plan, 0);
  RunOracle oracle;
  oracle.run_core().set_fault_state(&run_faults);
  oracle.one_core().set_fault_state(&one_faults);
  run_faults.begin_execution(0, false);
  one_faults.begin_execution(0, false);
  oracle.run_core().trace().enable();
  oracle.one_core().trace().enable();
  std::mt19937 rng(2024);
  oracle.fill(rng);
  int faults = 0;
  for (int i = 0; i < 300; ++i) {
    const RunOracle::Case c = random_case(rng, 60);
    const std::string what = describe(c, i);
    std::string run_fault, one_fault;
    oracle.issue(c, &run_fault, &one_fault);
    EXPECT_EQ(run_fault, one_fault) << what;
    faults += !run_fault.empty();
    EXPECT_TRUE(run_faults.stats() == one_faults.stats()) << what;
    oracle.expect_same(what);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GE(faults, 5);
  EXPECT_EQ(run_faults.stats().faults_injected, faults);
}

}  // namespace
}  // namespace davinci
