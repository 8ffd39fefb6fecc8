#include "sim/vector_unit.h"

#include <bit>
#include <functional>
#include <initializer_list>
#include <string>

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

struct VecOperand {
  VecOperand(Span<Float16> s, std::int64_t stride, std::int64_t advance)
      : span(s), base(s.data()), rep_stride(stride), step(advance) {}

  Span<Float16> span;
  Float16* base;  // span.data()
  std::int64_t rep_stride;
  std::int64_t step;

  // Repeat `rep` of issue `i`.
  Float16* at(std::int64_t i, int rep) const {
    return base + i * step + rep * rep_stride;
  }
  // One past the highest element lanes [0, end) of `issues` issues touch.
  std::int64_t extent(const VecConfig& cfg, std::int64_t issues,
                      int end) const {
    return (issues - 1) * step +
           static_cast<std::int64_t>(cfg.repeat - 1) * rep_stride + end;
  }
};

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

// True when no issue of a run touches another issue's destination, so
// the issues' repeats may interleave in any order that keeps each issue's
// own repeats in order. The destinations are each issue's own when whole
// issue extents are disjoint, or when every repeat's rows of all issues
// fit below the next repeat's; each source is then the destination
// itself (same start, stride and step) or disjoint from every
// destination. A layout this cannot show independent runs issue by issue.
bool independent(const VecConfig& cfg, std::int64_t issues, int end,
                 const VecOperand& d, const VecOperand& a,
                 const VecOperand& b) {
  const std::int64_t one = d.extent(cfg, 1, end);
  if (!(d.step >= one ||
        (d.step >= end && (issues - 1) * d.step + end <= d.rep_stride))) {
    return false;
  }
  const std::less<const Float16*> before;
  const Float16* const d_lo = d.span.data();
  const Float16* const d_hi = d_lo + d.extent(cfg, issues, end);
  for (const VecOperand* s : {&a, &b}) {
    const Float16* const lo = s->span.data();
    if (lo == d_lo && s->step == d.step && s->rep_stride == d.rep_stride) {
      continue;
    }
    if (before(lo, d_hi) && before(d_lo, lo + s->extent(cfg, issues, end))) {
      return false;
    }
  }
  return true;
}

// Issues [0, n) of a prefix-masked run (`lanes` lanes) as fp16_lanes
// calls: the issues are the rows at repeat 1; repeat-major, repeat r of
// every issue per call, where that makes fewer calls and the issues are
// independent; else issue by issue, each with its repeats as rows.
template <class RowsFn>
void prefix_rows(const VecConfig& cfg, std::int64_t n, int lanes,
                 const VecOperand& d, const VecOperand& a, const VecOperand& b,
                 RowsFn& rows) {
  const fp16_lanes::Rows issues{static_cast<int>(n), lanes, d.step, a.step,
                                b.step};
  if (cfg.repeat == 1) {
    rows(d.at(0, 0), a.at(0, 0), b.at(0, 0), issues);
  } else if (n > cfg.repeat && independent(cfg, n, lanes, d, a, b)) {
    for (int rep = 0; rep < cfg.repeat; ++rep) {
      rows(d.at(0, rep), a.at(0, rep), b.at(0, rep), issues);
    }
  } else {
    const fp16_lanes::Rows repeats{cfg.repeat, lanes, d.rep_stride,
                                   a.rep_stride, b.rep_stride};
    for (std::int64_t i = 0; i < n; ++i) {
      rows(d.at(i, 0), a.at(i, 0), b.at(i, 0), repeats);
    }
  }
}

// One past the highest active lane of `m`.
inline int end_lane(const VecMask& m) {
  return m.hi != 0 ? 128 - std::countl_zero(m.hi)
                   : 64 - std::countl_zero(m.lo);
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

void VectorUnit::validate(const VecConfig& cfg, const VecRun& run, int end,
                          std::initializer_list<const VecOperand*> ops) const {
  DV_CHECK(cfg.repeat >= 1 && cfg.repeat <= arch_.max_repeat)
      << "repeat " << cfg.repeat << " out of range (max " << arch_.max_repeat
      << "); the surrounding kernel loop must reissue";
  DV_CHECK(run.count >= 1 && run.scalar_iters >= 0)
      << "run of " << run.count << " issues, " << run.scalar_iters
      << " scalar iterations each";
  for (const VecOperand* o : ops) {
    DV_CHECK(o->span.kind() == BufferKind::kUnified)
        << "vector operands must live in the Unified Buffer, got "
        << davinci::to_string(o->span.kind());
    DV_CHECK(o->rep_stride >= 0 && o->step >= 0)
        << "operand repeat stride " << o->rep_stride << ", step " << o->step;
    // One hoisted bounds check replacing the per-access Span::at checks
    // of the whole run. An empty mask touches nothing.
    if (end == 0) continue;
    const std::int64_t need = o->extent(cfg, run.count, end);
    DV_CHECK_LE(need, o->span.size())
        << to_string(o->span.kind()) << " vector operand extent " << need
        << " of " << o->span.size();
  }
}

template <class Work>
void VectorUnit::issue(const char* op, const VecConfig& cfg,
                       const VecRun& run, int lanes, Work&& work) {
  // A vec_fault stops the run at the issue it hits: that issue and the
  // ones before it execute and are booked, but not its scalar iterations,
  // then the fault is raised -- the cycles were really spent before the
  // parity check tripped, and the kernel's loop never got further.
  const std::int64_t hit = ledger_->fault != nullptr
                               ? ledger_->fault->vector_fault_at(run.count)
                               : run.count;
  work(hit < run.count ? hit + 1 : hit);
  const std::int64_t used = std::int64_t{lanes} * cfg.repeat;
  const std::int64_t capacity =
      std::int64_t{arch_.vector_lanes} * cfg.repeat;
  const auto book = [&](std::int64_t issues, std::int64_t then) {
    // UB operand traffic: two bytes per active lane per repeat iteration
    // -- the roofline's compute-side byte count.
    ledger_->counts.traffic.ub_vector_bytes += used * 2 * issues;
    ledger_->book(TraceKind::kVector, Pipe::kVector,
                  cost_.vector_instr(cfg.repeat),
                  {1, used, capacity, lanes == arch_.vector_lanes ? 1 : 0},
                  [&] {
                    return std::string(op) + " repeat=" +
                           std::to_string(cfg.repeat) +
                           " lanes=" + std::to_string(lanes);
                  },
                  issues, then);
  };
  const std::int64_t then = run.scalar_iters * cost_.scalar_loop_cycles;
  if (hit == run.count) {
    book(run.count, then);
    return;
  }
  if (hit > 0) book(hit, then);
  book(1, 0);
  ledger_->fault->throw_vector_fault(op);
}

template <class RowsFn>
void VectorUnit::elementwise(const char* op, const VecConfig& cfg,
                             const VecRun& run, const VecOperand& d,
                             const VecOperand& a, const VecOperand& b,
                             RowsFn&& rows) {
  const VecMask& m = cfg.mask;
  const int pfx = prefix_lanes(m);
  const int end = pfx >= 0 ? pfx : end_lane(m);
  validate(cfg, run, end, {&d, &a, &b});
  issue(op, cfg, run, pfx >= 0 ? pfx : m.count(), [&](std::int64_t n) {
    if (end == 0) return;
    if (pfx >= 0) {
      prefix_rows(cfg, n, pfx, d, a, b, rows);
      return;
    }
    // Any other mask: one call per active lane, repeat after repeat,
    // issue after issue.
    const fp16_lanes::Rows one_lane{1, 1};
    for (std::int64_t i = 0; i < n; ++i) {
      for (int rep = 0; rep < cfg.repeat; ++rep) {
        Float16* const dr = d.at(i, rep);
        const Float16* const x = a.at(i, rep);
        const Float16* const y = b.at(i, rep);
        for (int lane = 0; lane < end; ++lane) {
          if (m.lane(lane)) rows(dr + lane, x + lane, y + lane, one_lane);
        }
      }
    }
  });
}

void VectorUnit::binary(VecOp op, Span<Float16> dst, Span<Float16> src0,
                        Span<Float16> src1, const VecConfig& cfg,
                        const VecRun& run) {
  const fp16_lanes::Op lop = lane_op(op);
  elementwise(to_string(op), cfg, run,
              {dst, cfg.dst_rep_stride, run.dst_step},
              {src0, cfg.src0_rep_stride, run.src0_step},
              {src1, cfg.src1_rep_stride, run.src1_step},
              [lop](Float16* d, const Float16* a, const Float16* b,
                    const fp16_lanes::Rows& r) {
                fp16_lanes::run(lop, d, a, b, r);
              });
}

void VectorUnit::dup(Span<Float16> dst, Float16 value, const VecConfig& cfg) {
  // No source: dst stands in for both of elementwise's operands.
  const VecOperand o{dst, cfg.dst_rep_stride, 0};
  elementwise(
      "vector_dup", cfg, VecRun{}, o, o, o,
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
}

void VectorUnit::adds(Span<Float16> dst, Span<Float16> src, Float16 s,
                      const VecConfig& cfg) {
  // One source: it stands in for both of elementwise's operands.
  const VecOperand a{src, cfg.src0_rep_stride, 0};
  elementwise("vadds", cfg, VecRun{}, {dst, cfg.dst_rep_stride, 0}, a, a,
              [s](Float16* d, const Float16* x, const Float16*,
                  const fp16_lanes::Rows& r) {
                fp16_lanes::run_scalar(fp16_lanes::Op::kAdd, d, x, s, r);
              });
}

void VectorUnit::muls(Span<Float16> dst, Span<Float16> src, Float16 s,
                      const VecConfig& cfg) {
  const VecOperand a{src, cfg.src0_rep_stride, 0};
  elementwise("vmuls", cfg, VecRun{}, {dst, cfg.dst_rep_stride, 0}, a, a,
              [s](Float16* d, const Float16* x, const Float16*,
                  const fp16_lanes::Rows& r) {
                fp16_lanes::run_scalar(fp16_lanes::Op::kMul, d, x, s, r);
              });
}

void VectorUnit::cmpv_eq(Span<Float16> dst, Span<Float16> src0,
                         Span<Float16> src1, const VecConfig& cfg,
                         const VecRun& run) {
  elementwise("vcmpv_eq", cfg, run, {dst, cfg.dst_rep_stride, run.dst_step},
              {src0, cfg.src0_rep_stride, run.src0_step},
              {src1, cfg.src1_rep_stride, run.src1_step},
              [](Float16* d, const Float16* a, const Float16* b,
                 const fp16_lanes::Rows& r) {
                fp16_lanes::run(fp16_lanes::Op::kEq, d, a, b, r);
              });
}

void VectorUnit::sel(Span<Float16> dst, Span<Float16> cond, Span<Float16> a,
                     Span<Float16> b, const VecConfig& cfg) {
  const VecOperand od{dst, cfg.dst_rep_stride, 0};
  const VecOperand oc{cond, cfg.src0_rep_stride, 0};
  const VecOperand oa{a, cfg.src0_rep_stride, 0};
  const VecOperand ob{b, cfg.src1_rep_stride, 0};
  const int end = end_lane(cfg.mask);
  const VecRun one;
  validate(cfg, one, end, {&od, &oc, &oa, &ob});
  issue("vsel", cfg, one, cfg.mask.count(), [&](std::int64_t) {
    for (int rep = 0; rep < cfg.repeat; ++rep) {
      for (int lane = 0; lane < end; ++lane) {
        if (!cfg.mask.lane(lane)) continue;
        const bool c = !oc.at(0, rep)[lane].is_zero();
        od.at(0, rep)[lane] = c ? oa.at(0, rep)[lane] : ob.at(0, rep)[lane];
      }
    }
  });
}

}  // namespace davinci
