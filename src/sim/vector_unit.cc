#include "sim/vector_unit.h"

#include <algorithm>
#include <bit>

#include "sim/fp16_lanes.h"

namespace davinci {

VecMask VecMask::first_n(int n) {
  DV_CHECK(n >= 0 && n <= 128) << "mask lanes " << n;
  VecMask m;
  if (n >= 64) {
    m.lo = ~0ull;
    m.hi = (n == 128) ? ~0ull : ((1ull << (n - 64)) - 1);
  } else {
    m.lo = (n == 0) ? 0 : ((n == 64) ? ~0ull : ((1ull << n) - 1));
    m.hi = 0;
  }
  return m;
}

int VecMask::count() const {
  return std::popcount(lo) + std::popcount(hi);
}

const char* to_string(VecOp op) {
  switch (op) {
    case VecOp::kMax: return "vmax";
    case VecOp::kMin: return "vmin";
    case VecOp::kAdd: return "vadd";
    case VecOp::kSub: return "vsub";
    case VecOp::kMul: return "vmul";
    case VecOp::kDiv: return "vdiv";
  }
  return "?";
}

void VectorUnit::validate(const Span<Float16>& s, const VecConfig& cfg,
                          std::int64_t rep_stride) const {
  DV_CHECK(s.kind() == BufferKind::kUnified)
      << "vector operands must live in the Unified Buffer, got "
      << davinci::to_string(s.kind());
  DV_CHECK(cfg.repeat >= 1 && cfg.repeat <= arch_.max_repeat)
      << "repeat " << cfg.repeat << " out of range (max " << arch_.max_repeat
      << "); the surrounding kernel loop must reissue";
  DV_CHECK_GE(rep_stride, 0);
}

void VectorUnit::charge(const char* op, const VecConfig& cfg, int lanes) {
  const std::int64_t used = std::int64_t{lanes} * cfg.repeat;
  // UB operand traffic: two bytes per active lane per repeat iteration --
  // the roofline's compute-side byte count.
  ledger_->counts.traffic.ub_vector_bytes += used * 2;
  const std::int64_t capacity =
      std::int64_t{arch_.vector_lanes} * cfg.repeat;
  ledger_->book(TraceKind::kVector, Pipe::kVector,
                cost_.vector_instr(cfg.repeat),
                {1, used, capacity, lanes == arch_.vector_lanes ? 1 : 0},
                [&] {
                  return std::string(op) + " repeat=" +
                         std::to_string(cfg.repeat) +
                         " lanes=" + std::to_string(lanes);
                });
  // The cycles above were really spent before the parity check tripped, so
  // the fault hook runs after the booking. May throw TransientFault.
  if (ledger_->fault) ledger_->fault->on_vector_instr(op);
}

namespace {

// Returns n when the mask is exactly first_n(n), else -1. Every pooling
// kernel issues prefix masks (full 128 lanes or a C0/tail prefix), so
// this is the common case; it lets the execution loops hoist the
// per-element bounds check out of the lane loop and run on raw pointers.
// Counting trailing ones needs no popcount, which at the baseline x86-64
// ISA is a library call.
inline int prefix_lanes(const VecMask& m) {
  const int lo = std::countr_one(m.lo);
  if (lo < 64) return (m.lo >> lo) == 0 && m.hi == 0 ? lo : -1;
  const int hi = std::countr_one(m.hi);
  return hi == 64 || (m.hi >> hi) == 0 ? 64 + hi : -1;
}

// One hoisted bounds check replacing the per-access Span::at checks of a
// masked op: the highest element touched is (repeat-1)*stride + end - 1.
inline void check_extent(const Span<Float16>& s, const VecConfig& cfg,
                         std::int64_t stride, int end) {
  const std::int64_t need =
      static_cast<std::int64_t>(cfg.repeat - 1) * stride + end;
  DV_CHECK_LE(need, s.size())
      << to_string(s.kind()) << " vector operand extent " << need << " of "
      << s.size();
}

// The element work of one instruction with sources a and b: rows(d, x, y,
// shape) computes rows of lanes with fp16_lanes::run's contract. A prefix
// mask -- the path every kernel takes -- is one call for the whole
// instruction, with the repeats as rows; any other mask is one call per
// active lane, repeat after repeat. Returns the active lane count.
template <class RowsFn>
int each_repeat(const VecConfig& cfg, Span<Float16> dst, Span<Float16> a,
                std::int64_t a_stride, Span<Float16> b, std::int64_t b_stride,
                RowsFn&& rows) {
  const VecMask& m = cfg.mask;
  const int pfx = prefix_lanes(m);
  const int end =  // one past the highest active lane
      pfx >= 0 ? pfx
      : m.hi != 0 ? 128 - std::countl_zero(m.hi)
                  : 64 - std::countl_zero(m.lo);
  if (end == 0) return 0;
  check_extent(dst, cfg, cfg.dst_rep_stride, end);
  check_extent(a, cfg, a_stride, end);
  check_extent(b, cfg, b_stride, end);
  if (pfx >= 0) {
    rows(dst.data(), a.data(), b.data(),
         fp16_lanes::Rows{cfg.repeat, pfx, cfg.dst_rep_stride, a_stride,
                          b_stride});
    return pfx;
  }
  const fp16_lanes::Rows one_lane{1, 1};
  for (int rep = 0; rep < cfg.repeat; ++rep) {
    Float16* const d = dst.data() + rep * cfg.dst_rep_stride;
    const Float16* const x = a.data() + rep * a_stride;
    const Float16* const y = b.data() + rep * b_stride;
    for (int lane = 0; lane < end; ++lane) {
      if (m.lane(lane)) rows(d + lane, x + lane, y + lane, one_lane);
    }
  }
  return m.count();
}

fp16_lanes::Op lane_op(VecOp op) {
  switch (op) {
    case VecOp::kMax: return fp16_lanes::Op::kMax;
    case VecOp::kMin: return fp16_lanes::Op::kMin;
    case VecOp::kAdd: return fp16_lanes::Op::kAdd;
    case VecOp::kSub: return fp16_lanes::Op::kSub;
    case VecOp::kMul: return fp16_lanes::Op::kMul;
    case VecOp::kDiv: return fp16_lanes::Op::kDiv;
  }
  DV_CHECK(false) << "unknown VecOp";
  return fp16_lanes::Op::kAdd;
}

}  // namespace

void VectorUnit::binary(VecOp op, Span<Float16> dst, Span<Float16> src0,
                        Span<Float16> src1, const VecConfig& cfg) {
  validate(dst, cfg, cfg.dst_rep_stride);
  validate(src0, cfg, cfg.src0_rep_stride);
  validate(src1, cfg, cfg.src1_rep_stride);
  const fp16_lanes::Op lop = lane_op(op);
  const int lanes = each_repeat(
      cfg, dst, src0, cfg.src0_rep_stride, src1, cfg.src1_rep_stride,
      [lop](Float16* d, const Float16* a, const Float16* b,
            const fp16_lanes::Rows& r) { fp16_lanes::run(lop, d, a, b, r); });
  charge(to_string(op), cfg, lanes);
}

void VectorUnit::dup(Span<Float16> dst, Float16 value, const VecConfig& cfg) {
  validate(dst, cfg, cfg.dst_rep_stride);
  // No source: dst stands in for both of each_repeat's operands.
  const int lanes = each_repeat(
      cfg, dst, dst, cfg.dst_rep_stride, dst, cfg.dst_rep_stride,
      [bits = value.bits()](Float16* d, const Float16*, const Float16*,
                            const fp16_lanes::Rows& r) {
        // The value as a captured 16-bit integer, which no store through d
        // can alias: the compiler vectorizes this loop, where std::fill_n
        // of a Float16 stores one element at a time.
        const auto fill = [bits](Float16* p, std::int64_t n) {
          for (std::int64_t i = 0; i < n; ++i) p[i] = Float16::from_bits(bits);
        };
        if (r.count == 1 || r.dst_stride == r.lanes) {
          fill(d, std::int64_t{r.count} * r.lanes);
          return;
        }
        for (int i = 0; i < r.count; ++i) fill(d + i * r.dst_stride, r.lanes);
      });
  charge("vector_dup", cfg, lanes);
}

void VectorUnit::adds(Span<Float16> dst, Span<Float16> src, Float16 s,
                      const VecConfig& cfg) {
  validate(dst, cfg, cfg.dst_rep_stride);
  validate(src, cfg, cfg.src0_rep_stride);
  // One source: it stands in for both of each_repeat's operands.
  const int lanes = each_repeat(
      cfg, dst, src, cfg.src0_rep_stride, src, cfg.src0_rep_stride,
      [s](Float16* d, const Float16* a, const Float16*,
          const fp16_lanes::Rows& r) {
        fp16_lanes::run_scalar(fp16_lanes::Op::kAdd, d, a, s, r);
      });
  charge("vadds", cfg, lanes);
}

void VectorUnit::muls(Span<Float16> dst, Span<Float16> src, Float16 s,
                      const VecConfig& cfg) {
  validate(dst, cfg, cfg.dst_rep_stride);
  validate(src, cfg, cfg.src0_rep_stride);
  const int lanes = each_repeat(
      cfg, dst, src, cfg.src0_rep_stride, src, cfg.src0_rep_stride,
      [s](Float16* d, const Float16* a, const Float16*,
          const fp16_lanes::Rows& r) {
        fp16_lanes::run_scalar(fp16_lanes::Op::kMul, d, a, s, r);
      });
  charge("vmuls", cfg, lanes);
}

void VectorUnit::cmpv_eq(Span<Float16> dst, Span<Float16> src0,
                         Span<Float16> src1, const VecConfig& cfg) {
  validate(dst, cfg, cfg.dst_rep_stride);
  validate(src0, cfg, cfg.src0_rep_stride);
  validate(src1, cfg, cfg.src1_rep_stride);
  const int lanes = each_repeat(
      cfg, dst, src0, cfg.src0_rep_stride, src1, cfg.src1_rep_stride,
      [](Float16* d, const Float16* a, const Float16* b,
         const fp16_lanes::Rows& r) {
        fp16_lanes::run(fp16_lanes::Op::kEq, d, a, b, r);
      });
  charge("vcmpv_eq", cfg, lanes);
}

void VectorUnit::sel(Span<Float16> dst, Span<Float16> cond, Span<Float16> a,
                     Span<Float16> b, const VecConfig& cfg) {
  validate(dst, cfg, cfg.dst_rep_stride);
  validate(cond, cfg, cfg.src0_rep_stride);
  validate(a, cfg, cfg.src0_rep_stride);
  validate(b, cfg, cfg.src1_rep_stride);
  for (int rep = 0; rep < cfg.repeat; ++rep) {
    const std::int64_t d = rep * cfg.dst_rep_stride;
    const std::int64_t ca = rep * cfg.src0_rep_stride;
    const std::int64_t cb = rep * cfg.src1_rep_stride;
    for (int lane = 0; lane < arch_.vector_lanes; ++lane) {
      if (!cfg.mask.lane(lane)) continue;
      const bool c = !cond.at(ca + lane).is_zero();
      dst.at(d + lane) = c ? a.at(ca + lane) : b.at(cb + lane);
    }
  }
  charge("vsel", cfg, cfg.mask.count());
}

}  // namespace davinci
