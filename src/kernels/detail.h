// Shared helpers for kernel programs (internal to src/kernels).
#pragma once

#include <chrono>
#include <cstdint>

#include "common/check.h"
#include "sim/ai_core.h"
#include "sim/device.h"
#include "tensor/fractal.h"
#include "tensor/tensor.h"

namespace davinci::kernels::detail {

// Host wall clock for the driver-phase attribution buckets.
inline std::int64_t host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Folds the driver's planning time into the run result. Device::run
// filled host_execute_ns (== its host_ns) and run_pool adds
// host_alloc_ns and host_validate_ns; afterwards host_ns stays the exact
// sum of the four buckets -- the invariant metrics schema v4 serializes
// and tests assert.
inline void add_plan_time(Device::RunResult& run, std::int64_t plan_ns) {
  run.host_plan_ns += plan_ns;
  run.host_ns += plan_ns;
}

// Runs `body` as one pipelined stage on `pipe` when `on`, plain (serial
// timeline, no stage) when not. Returns the stage's completion event --
// 0 in serial mode, so chaining `std::max` over events stays correct and
// a dependency on "nothing" costs nothing. This is how the pooling
// kernels keep ONE code path for both the single-buffer serial schedule
// and the ping-pong overlapped one: the functional calls inside `body`
// are identical either way, only their placement on the pipe timeline
// changes (see sim/pipe_schedule.h).
template <typename Body>
inline PipeScheduler::Event staged(AiCore& core, bool on, Pipe pipe,
                                   PipeScheduler::Event after, Body&& body) {
  if (!on) {
    body();
    return 0;
  }
  core.begin_stage(pipe, after);
  body();
  return core.end_stage();
}

// Global-memory view of a tensor's storage. Input tensors are logically
// read-only; kernels only pass their spans as MTE copy sources.
inline Span<Float16> gm_view(const TensorF16& t) {
  return gm_span(const_cast<Float16*>(t.data()), t.size());
}
inline Span<Float16> gm_view(TensorF16& t) {
  return gm_span(t.data(), t.size());
}

// The one splitter behind the strided vector lowerings: `rows` rows of
// `row_elems` contiguous elements, consecutive rows a repeat stride
// apart. Each 128-lane column chunk of the rows is one instruction with
// the repeat parameter walking the rows, reissued in <= max_repeat
// chunks, plus a scalar-loop charge per reissue. `issue(cfg, off, row)`
// emits the instruction for column `off` starting at row `row`; `cfg`
// carries its mask and repeat, and the caller adds the strides.
template <typename Issue>
inline void split_rows(AiCore& core, std::int64_t rows,
                       std::int64_t row_elems, Issue&& issue) {
  DV_CHECK_GE(rows, 1);
  const int lanes = core.arch().vector_lanes;
  const int max_rep = core.arch().max_repeat;
  std::int64_t instrs = 0;
  for (std::int64_t off = 0; off < row_elems; off += lanes) {
    const int active = static_cast<int>(
        row_elems - off < lanes ? row_elems - off : lanes);
    std::int64_t done = 0;
    while (done < rows) {
      VecConfig cfg;
      cfg.mask = VecMask::first_n(active);
      cfg.repeat =
          static_cast<int>(rows - done > max_rep ? max_rep : rows - done);
      issue(cfg, off, done);
      done += cfg.repeat;
      ++instrs;
    }
  }
  if (instrs > 1) core.scalar_loop(instrs - 1);
}

// Row-strided full-mask binary op: applies `op` to `rows` rows of
// `row_elems` contiguous elements, where consecutive rows are
// `*_row_stride` elements apart -- the saturated-mask lowering available
// when Sw == 1 ("combining the mask register set with all 128 elements
// and its repeat parameter to compute the max between the (Ow, C0)
// dimensions", Section VI-B). Issues ceil(row_elems / 128) instructions
// per call (plus reissues when rows exceed max_repeat).
inline void row_strided_binary(AiCore& core, VecOp op, Span<Float16> dst,
                               std::int64_t dst_row_stride,
                               Span<Float16> src0,
                               std::int64_t src0_row_stride,
                               Span<Float16> src1,
                               std::int64_t src1_row_stride,
                               std::int64_t rows, std::int64_t row_elems) {
  split_rows(core, rows, row_elems,
             [&](VecConfig cfg, std::int64_t off, std::int64_t row) {
               cfg.dst_rep_stride = dst_row_stride;
               cfg.src0_rep_stride = src0_row_stride;
               cfg.src1_rep_stride = src1_row_stride;
               core.vec().binary(
                   op, dst.drop_front(off + row * dst_row_stride),
                   src0.drop_front(off + row * src0_row_stride),
                   src1.drop_front(off + row * src1_row_stride), cfg);
             });
}

// The same lowering for the vadds copy idiom: dst row = src row + 0.
inline void row_strided_copy(AiCore& core, Span<Float16> dst,
                             std::int64_t dst_row_stride, Span<Float16> src,
                             std::int64_t src_row_stride, std::int64_t rows,
                             std::int64_t row_elems) {
  split_rows(core, rows, row_elems,
             [&](VecConfig cfg, std::int64_t off, std::int64_t row) {
               cfg.dst_rep_stride = dst_row_stride;
               cfg.src0_rep_stride = src_row_stride;
               core.vec().adds(dst.drop_front(off + row * dst_row_stride),
                               src.drop_front(off + row * src_row_stride),
                               Float16(), cfg);
             });
}

// The 16-lane (C0-masked) copy the paper's "vectorize on C0 only"
// baselines use (the expansion implementation's vector copies): `count`
// strided C0 groups, i.e. rows of one C0 group each.
inline void strided16_copy(AiCore& core, Span<Float16> dst,
                           std::int64_t dst_stride, Span<Float16> src,
                           std::int64_t src_stride, std::int64_t count) {
  row_strided_copy(core, dst, dst_stride, src, src_stride, count, kC0);
}

// The direct baselines' reduction (Listing 1): out[oy, ox] = op over the
// (Kh, Kw) window of the unpadded (rows, iw, C0) tile `in`, for `oh` x
// `ow` outputs. One 16-lane instruction per (oy, ox, kh), its repeat
// walking Kw into the stride-0 accumulator -- issued Oh*Ow*Kh times, each
// followed by one scalar-loop iteration. The instructions of one (oy, kh)
// are one run over ox: every issue costs the same and the destinations
// are disjoint, so bits, intervals and trace events are those of the
// (oy, ox, kh) loop.
inline void patch_reduce(AiCore& core, VecOp op, Span<Float16> out,
                         Span<Float16> in, const Window2d& w, std::int64_t oh,
                         std::int64_t ow, std::int64_t iw) {
  VecConfig cfg;
  cfg.mask = VecMask::first_n(static_cast<int>(kC0));
  cfg.repeat = static_cast<int>(w.kw);
  cfg.dst_rep_stride = 0;  // reduction idiom
  cfg.src0_rep_stride = 0;
  cfg.src1_rep_stride = kC0;
  const VecRun run{.count = static_cast<int>(ow),
                   .dst_step = kC0,
                   .src0_step = kC0,
                   .src1_step = w.sw * kC0,
                   .scalar_iters = 1};
  for (std::int64_t oy = 0; oy < oh; ++oy) {
    auto dst = out.drop_front(oy * ow * kC0);
    for (std::int64_t kh = 0; kh < w.kh; ++kh) {
      core.vec().binary(op, dst, dst,
                        in.drop_front((oy * w.sh + kh) * iw * kC0), cfg, run);
    }
  }
}

// The baselines' vadd merge (Section V-B): adds the (Kh, Kw, PP, C0)
// contribution planes, `plane_stride` elements apart (0: every kernel
// position reads the first), into the (ih, iw, C0) tile `out` that `args`
// describes. One 16-lane vadd per in-image patch, no repetition, each
// followed by one scalar-loop iteration -- the baseline's "very poor usage
// of the Vector Unit". Walks (kh, kw, output row) like Scu::col2im, one
// run over each row's in-image patches, so the adds into every element
// keep their order.
inline void vadd_merge(AiCore& core, Span<Float16> out, Span<Float16> planes,
                       std::int64_t plane_stride, const Im2colArgs& args) {
  const Window2d& w = args.window;
  const std::int64_t ow = args.ow();
  VecConfig cfg;
  cfg.mask = VecMask::first_n(static_cast<int>(kC0));
  for (std::int64_t kh = 0; kh < w.kh; ++kh) {
    for (std::int64_t kw = 0; kw < w.kw; ++kw) {
      const auto [first, last] = args.in_image_cols(kw);
      if (first == last) continue;
      const VecRun run{.count = static_cast<int>(last - first),
                       .dst_step = w.sw * kC0,
                       .src0_step = w.sw * kC0,
                       .src1_step = kC0,
                       .scalar_iters = 1};
      const std::int64_t x_first = first * w.sw + kw - w.pl;
      const std::int64_t pbase = (kh * w.kw + kw) * plane_stride;
      for (std::int64_t oy = 0; oy < args.oh(); ++oy) {
        const std::int64_t y = oy * w.sh + kh - w.pt;
        if (y < 0 || y >= args.ih) continue;
        auto dst = out.drop_front((y * args.iw + x_first) * kC0);
        core.vec().binary(VecOp::kAdd, dst, dst,
                          planes.drop_front(pbase + (oy * ow + first) * kC0),
                          cfg, run);
      }
    }
  }
}

// Full-mask reduction of `planes` consecutive (plane_elems)-sized planes
// of `cols` into `acc` -- the proposed Listing-2 reduction: one
// instruction sequence per (kh, kw) plane with a saturated mask.
inline void reduce_planes(AiCore& core, VecOp op, Span<Float16> acc,
                          Span<Float16> cols, std::int64_t planes,
                          std::int64_t plane_elems) {
  for (std::int64_t k = 0; k < planes; ++k) {
    core.vbin_flat(op, acc, acc, cols.sub(k * plane_elems, plane_elems),
                   plane_elems);
    core.scalar_loop(1);
  }
}

}  // namespace davinci::kernels::detail
