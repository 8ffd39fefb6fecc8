#include "sim/vector_unit.h"

#include <bit>
#include <map>
#include <memory>
#include <mutex>

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

void VectorUnit::charge(const char* op, const VecConfig& cfg) {
  const int lanes = cfg.mask.count();
  // UB operand traffic: two bytes per active lane per repeat iteration --
  // the roofline's compute-side byte count.
  stats_->traffic.ub_vector_bytes +=
      static_cast<std::int64_t>(lanes) * cfg.repeat * 2;
  profile_->count_vec_instr(lanes, arch_.vector_lanes, cfg.repeat);
  const std::int64_t cycles = cost_.vector_instr(cfg.repeat);
  stats_->vector_cycles += cycles;
  std::int64_t start = -1;
  if (sched_) start = sched_->issue(Pipe::kVector, cycles).start;
  if (trace_ && trace_->enabled()) {
    trace_->record(TraceKind::kVector,
                   std::string(op) + " repeat=" + std::to_string(cfg.repeat) +
                       " lanes=" + std::to_string(lanes),
                   cycles, static_cast<std::int64_t>(lanes) * cfg.repeat,
                   static_cast<std::int64_t>(arch_.vector_lanes) * cfg.repeat,
                   start);
  }
  // The cycles above were really spent before the parity check tripped, so
  // the fault hook runs after the ledger update. May throw TransientFault.
  if (fault_) fault_->on_vector_instr(op);
}

namespace {

inline Float16 apply(VecOp op, Float16 a, Float16 b) {
  switch (op) {
    case VecOp::kMax: return fmax16(a, b);
    case VecOp::kMin: return fmin16(a, b);
    case VecOp::kAdd: return a + b;
    case VecOp::kSub: return a - b;
    case VecOp::kMul: return a * b;
    case VecOp::kDiv: return a / b;
  }
  return Float16();
}

// Returns n when the mask is exactly first_n(n), else -1. Every pooling
// kernel issues prefix masks (full 128 lanes or a C0/tail prefix), so
// this is the common case; it lets the execution loops hoist the
// per-element bounds check out of the lane loop and run on raw pointers.
inline int prefix_lanes(const VecMask& m) {
  if (m.hi == 0) {
    if ((m.lo & (m.lo + 1)) != 0) return -1;  // lo not of the form 2^k - 1
    return std::popcount(m.lo);
  }
  if (m.lo != ~0ull) return -1;
  if ((m.hi & (m.hi + 1)) != 0) return -1;
  return 64 + std::popcount(m.hi);
}

// Result table for a scalar-operand op: t[bits] is the half-precision
// result of `cvt[bits] OP scalar`, precomputed with the same
// convert-operate-round sequence as the element loop, so a table pick is
// bit-identical to the direct computation. Serving replays issue the same
// few scalars (1 / window-area and friends) across millions of elements,
// so tables are cached process-wide; the cache is capped and callers fall
// back to the direct loop when it fills (unbounded distinct scalars only
// happen in synthetic tests).
const std::uint16_t* scalar_op_table(char op, std::uint16_t scalar_bits) {
  struct Key {
    char op;
    std::uint16_t bits;
    bool operator<(const Key& o) const {
      return op != o.op ? op < o.op : bits < o.bits;
    }
  };
  static std::mutex mu;
  static std::map<Key, std::unique_ptr<std::uint16_t[]>> cache;
  // Per-thread memo of the last table: the hot path repeats one scalar,
  // so most calls skip the lock entirely.
  thread_local char memo_op = 0;
  thread_local std::uint16_t memo_bits = 0;
  thread_local const std::uint16_t* memo_table = nullptr;
  if (memo_table != nullptr && memo_op == op && memo_bits == scalar_bits) {
    return memo_table;
  }
  const Key key{op, scalar_bits};
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(key);
  if (it == cache.end()) {
    constexpr std::size_t kMaxTables = 64;
    if (cache.size() >= kMaxTables) return nullptr;
    const float* const cvt = detail::f16_to_f32_table();
    const float fs = cvt[scalar_bits];
    auto t = std::make_unique<std::uint16_t[]>(65536);
    for (std::uint32_t i = 0; i < 65536; ++i) {
      const float r = op == '*' ? cvt[i] * fs : cvt[i] + fs;
      t[i] = detail::f32_to_f16_bits(r);
    }
    it = cache.emplace(key, std::move(t)).first;
  }
  memo_op = op;
  memo_bits = scalar_bits;
  memo_table = it->second.get();
  return memo_table;
}

// One hoisted bounds check replacing the per-access Span::at checks of a
// prefix-masked op: the highest element touched is
// (repeat-1)*stride + lanes - 1.
inline void check_extent(const Span<Float16>& s, const VecConfig& cfg,
                         std::int64_t stride, int lanes) {
  const std::int64_t need =
      static_cast<std::int64_t>(cfg.repeat - 1) * stride + lanes;
  DV_CHECK_LE(need, s.size())
      << to_string(s.kind()) << " vector operand extent " << need << " of "
      << s.size();
}

}  // namespace

void VectorUnit::binary(VecOp op, Span<Float16> dst, Span<Float16> src0,
                        Span<Float16> src1, const VecConfig& cfg) {
  validate(dst, cfg, cfg.dst_rep_stride);
  validate(src0, cfg, cfg.src0_rep_stride);
  validate(src1, cfg, cfg.src1_rep_stride);
  const int pfx = prefix_lanes(cfg.mask);
  if (pfx >= 0) {
    if (pfx > 0) {
      check_extent(dst, cfg, cfg.dst_rep_stride, pfx);
      check_extent(src0, cfg, cfg.src0_rep_stride, pfx);
      check_extent(src1, cfg, cfg.src1_rep_stride, pfx);
      Float16* const dp = dst.data();
      const Float16* const ap = src0.data();
      const Float16* const bp = src1.data();
      // Unswitch the op out of the element loop and convert fp16 inputs
      // through the table (bit-identical to the software conversion).
      const float* const cvt = detail::f16_to_f32_table();
      const auto run = [&](auto&& elem) {
        for (int rep = 0; rep < cfg.repeat; ++rep) {
          Float16* const d = dp + rep * cfg.dst_rep_stride;
          const Float16* const a = ap + rep * cfg.src0_rep_stride;
          const Float16* const b = bp + rep * cfg.src1_rep_stride;
          for (int lane = 0; lane < pfx; ++lane) {
            d[lane] = elem(a[lane], b[lane]);
          }
        }
      };
      // Max/min order in the bits domain: map the sign-magnitude half
      // encoding to a signed key that is monotone in the float value and
      // sends -0 and +0 to the same key, so the "first operand wins ties"
      // outcome of the float compare is preserved bit-for-bit. The
      // branchless key plus an integer select keeps the random-outcome
      // compare off the branch predictor.
      const auto order_key = [](std::uint16_t u) {
        const std::int32_t mag = u & 0x7FFF;
        const std::int32_t sgn =  // all ones when the sign bit is set
            static_cast<std::int32_t>(static_cast<std::int16_t>(u)) >> 15;
        return (mag ^ sgn) - sgn;
      };
      switch (op) {
        case VecOp::kMax:
          run([&](Float16 a, Float16 b) {
            if (a.is_nan()) return b;
            if (b.is_nan()) return a;
            const std::uint16_t r =
                order_key(a.bits()) >= order_key(b.bits()) ? a.bits()
                                                           : b.bits();
            return Float16::from_bits(r);
          });
          break;
        case VecOp::kMin:
          run([&](Float16 a, Float16 b) {
            if (a.is_nan()) return b;
            if (b.is_nan()) return a;
            const std::uint16_t r =
                order_key(a.bits()) <= order_key(b.bits()) ? a.bits()
                                                           : b.bits();
            return Float16::from_bits(r);
          });
          break;
        case VecOp::kAdd:
          run([&](Float16 a, Float16 b) {
            return Float16(cvt[a.bits()] + cvt[b.bits()]);
          });
          break;
        case VecOp::kSub:
          run([&](Float16 a, Float16 b) {
            return Float16(cvt[a.bits()] - cvt[b.bits()]);
          });
          break;
        case VecOp::kMul:
          run([&](Float16 a, Float16 b) {
            return Float16(cvt[a.bits()] * cvt[b.bits()]);
          });
          break;
        case VecOp::kDiv:
          run([&](Float16 a, Float16 b) {
            return Float16(cvt[a.bits()] / cvt[b.bits()]);
          });
          break;
      }
    }
  } else {
    for (int rep = 0; rep < cfg.repeat; ++rep) {
      const std::int64_t d = rep * cfg.dst_rep_stride;
      const std::int64_t a = rep * cfg.src0_rep_stride;
      const std::int64_t b = rep * cfg.src1_rep_stride;
      for (int lane = 0; lane < arch_.vector_lanes; ++lane) {
        if (!cfg.mask.lane(lane)) continue;
        dst.at(d + lane) = apply(op, src0.at(a + lane), src1.at(b + lane));
      }
    }
  }
  charge(to_string(op), cfg);
}

void VectorUnit::dup(Span<Float16> dst, Float16 value, const VecConfig& cfg) {
  validate(dst, cfg, cfg.dst_rep_stride);
  const int pfx = prefix_lanes(cfg.mask);
  if (pfx >= 0) {
    if (pfx > 0) {
      check_extent(dst, cfg, cfg.dst_rep_stride, pfx);
      Float16* const dp = dst.data();
      for (int rep = 0; rep < cfg.repeat; ++rep) {
        Float16* const d = dp + rep * cfg.dst_rep_stride;
        for (int lane = 0; lane < pfx; ++lane) d[lane] = value;
      }
    }
  } else {
    for (int rep = 0; rep < cfg.repeat; ++rep) {
      const std::int64_t d = rep * cfg.dst_rep_stride;
      for (int lane = 0; lane < arch_.vector_lanes; ++lane) {
        if (!cfg.mask.lane(lane)) continue;
        dst.at(d + lane) = value;
      }
    }
  }
  charge("vector_dup", cfg);
}

void VectorUnit::adds(Span<Float16> dst, Span<Float16> src, Float16 s,
                      const VecConfig& cfg) {
  validate(dst, cfg, cfg.dst_rep_stride);
  validate(src, cfg, cfg.src0_rep_stride);
  const int pfx = prefix_lanes(cfg.mask);
  if (pfx >= 0) {
    if (pfx > 0) {
      check_extent(dst, cfg, cfg.dst_rep_stride, pfx);
      check_extent(src, cfg, cfg.src0_rep_stride, pfx);
      Float16* const dp = dst.data();
      const Float16* const ap = src.data();
      const std::uint16_t* const tab = scalar_op_table('+', s.bits());
      const float* const cvt = detail::f16_to_f32_table();
      const float fs = s.to_float();
      for (int rep = 0; rep < cfg.repeat; ++rep) {
        Float16* const d = dp + rep * cfg.dst_rep_stride;
        const Float16* const a = ap + rep * cfg.src0_rep_stride;
        if (tab != nullptr) {
          for (int lane = 0; lane < pfx; ++lane) {
            d[lane] = Float16::from_bits(tab[a[lane].bits()]);
          }
        } else {
          for (int lane = 0; lane < pfx; ++lane) {
            d[lane] = Float16(cvt[a[lane].bits()] + fs);
          }
        }
      }
    }
  } else {
    for (int rep = 0; rep < cfg.repeat; ++rep) {
      const std::int64_t d = rep * cfg.dst_rep_stride;
      const std::int64_t a = rep * cfg.src0_rep_stride;
      for (int lane = 0; lane < arch_.vector_lanes; ++lane) {
        if (!cfg.mask.lane(lane)) continue;
        dst.at(d + lane) = src.at(a + lane) + s;
      }
    }
  }
  charge("vadds", cfg);
}

void VectorUnit::muls(Span<Float16> dst, Span<Float16> src, Float16 s,
                      const VecConfig& cfg) {
  validate(dst, cfg, cfg.dst_rep_stride);
  validate(src, cfg, cfg.src0_rep_stride);
  const int pfx = prefix_lanes(cfg.mask);
  if (pfx >= 0) {
    if (pfx > 0) {
      check_extent(dst, cfg, cfg.dst_rep_stride, pfx);
      check_extent(src, cfg, cfg.src0_rep_stride, pfx);
      Float16* const dp = dst.data();
      const Float16* const ap = src.data();
      const std::uint16_t* const tab = scalar_op_table('*', s.bits());
      const float* const cvt = detail::f16_to_f32_table();
      const float fs = s.to_float();
      for (int rep = 0; rep < cfg.repeat; ++rep) {
        Float16* const d = dp + rep * cfg.dst_rep_stride;
        const Float16* const a = ap + rep * cfg.src0_rep_stride;
        if (tab != nullptr) {
          for (int lane = 0; lane < pfx; ++lane) {
            d[lane] = Float16::from_bits(tab[a[lane].bits()]);
          }
        } else {
          for (int lane = 0; lane < pfx; ++lane) {
            d[lane] = Float16(cvt[a[lane].bits()] * fs);
          }
        }
      }
    }
  } else {
    for (int rep = 0; rep < cfg.repeat; ++rep) {
      const std::int64_t d = rep * cfg.dst_rep_stride;
      const std::int64_t a = rep * cfg.src0_rep_stride;
      for (int lane = 0; lane < arch_.vector_lanes; ++lane) {
        if (!cfg.mask.lane(lane)) continue;
        dst.at(d + lane) = src.at(a + lane) * s;
      }
    }
  }
  charge("vmuls", cfg);
}

void VectorUnit::cmpv_eq(Span<Float16> dst, Span<Float16> src0,
                         Span<Float16> src1, const VecConfig& cfg) {
  validate(dst, cfg, cfg.dst_rep_stride);
  validate(src0, cfg, cfg.src0_rep_stride);
  validate(src1, cfg, cfg.src1_rep_stride);
  const Float16 one(1.0f);
  const Float16 zero(0.0f);
  const int pfx = prefix_lanes(cfg.mask);
  if (pfx >= 0) {
    if (pfx > 0) {
      check_extent(dst, cfg, cfg.dst_rep_stride, pfx);
      check_extent(src0, cfg, cfg.src0_rep_stride, pfx);
      check_extent(src1, cfg, cfg.src1_rep_stride, pfx);
      Float16* const dp = dst.data();
      const Float16* const ap = src0.data();
      const Float16* const bp = src1.data();
      for (int rep = 0; rep < cfg.repeat; ++rep) {
        Float16* const d = dp + rep * cfg.dst_rep_stride;
        const Float16* const a = ap + rep * cfg.src0_rep_stride;
        const Float16* const b = bp + rep * cfg.src1_rep_stride;
        for (int lane = 0; lane < pfx; ++lane) {
          d[lane] = (a[lane] == b[lane]) ? one : zero;
        }
      }
    }
  } else {
    for (int rep = 0; rep < cfg.repeat; ++rep) {
      const std::int64_t d = rep * cfg.dst_rep_stride;
      const std::int64_t a = rep * cfg.src0_rep_stride;
      const std::int64_t b = rep * cfg.src1_rep_stride;
      for (int lane = 0; lane < arch_.vector_lanes; ++lane) {
        if (!cfg.mask.lane(lane)) continue;
        dst.at(d + lane) =
            (src0.at(a + lane) == src1.at(b + lane)) ? one : zero;
      }
    }
  }
  charge("vcmpv_eq", cfg);
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
  charge("vsel", cfg);
}

}  // namespace davinci
