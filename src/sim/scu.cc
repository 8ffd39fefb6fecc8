#include "sim/scu.h"

#include <algorithm>
#include <cstring>

#include "sim/fp16_lanes.h"

namespace davinci {

namespace {

// The (xk, yk) -> (y, x) source-coordinate mapping shared by both Im2Col
// iteration orders and Col2Im: patch p's (xk, yk) element comes from input
// position (p / Ow * Sh + xk - pad_top, p % Ow * Sw + yk - pad_left), and
// positions outside the input image are the virtual zero-padding border.
struct PatchCoords {
  explicit PatchCoords(const Im2colArgs& args)
      : w(args.window), ow(args.ow()), ih(args.ih), iw(args.iw) {}

  // Returns true (and the source position) when patch p's (xk, yk)
  // element lies inside the input image, false when it falls into the
  // padding border.
  bool source(std::int64_t p, std::int64_t xk, std::int64_t yk,
              std::int64_t* y, std::int64_t* x) const {
    *y = (p / ow) * w.sh + xk - w.pt;
    *x = (p % ow) * w.sw + yk - w.pl;
    return *y >= 0 && *y < ih && *x >= 0 && *x < iw;
  }

  const Window2d& w;
  std::int64_t ow;
  std::int64_t ih;
  std::int64_t iw;
};

}  // namespace

void Scu::maybe_fault_result(Span<Float16> dst, std::int64_t elems) {
  if (!ledger_->fault || elems <= 0) return;
  // SCU datapath corruption is its own site (scu_err); the bitflip sites
  // model upsets on MTE-landed data and do not double-dip here.
  auto* bytes = reinterpret_cast<std::byte*>(dst.data());
  ledger_->fault->on_scu_result(bytes, elems * 2);
}

void Scu::im2col_load(Span<Float16> dst, Span<Float16> src,
                      const Im2colArgs& args) {
  args.validate();
  DV_CHECK(src.kind() == BufferKind::kL1)
      << "Im2Col loads from L1, got " << to_string(src.kind());
  DV_CHECK(dst.kind() == BufferKind::kUnified ||
           dst.kind() == BufferKind::kL0A || dst.kind() == BufferKind::kL0B)
      << "Im2Col targets L0A/L0B/UB, got " << to_string(dst.kind());
  DV_CHECK_LE(args.input_elems(), src.size());
  DV_CHECK_LE(args.output_elems(), dst.size());

  const Window2d& w = args.window;
  const PatchCoords coords(args);
  const std::int64_t patches = args.patches();
  const std::int64_t padded = args.padded_patches();
  const std::int64_t fractals_per_plane = args.patch_fractals();

  // Functional semantics: for each kernel-relative position (xk, yk) the
  // instruction walks 16 consecutive patches per fractal, loading the
  // (xk, yk) element of each patch together with its whole C0 row. The
  // size checks above bound every access, so the loop runs on raw
  // pointers and moves each C0 row as one 32-byte block.
  Float16* const d = dst.data();
  const Float16* const s = src.data();
  constexpr std::size_t kRowBytes = kC0 * sizeof(Float16);
  const std::int64_t ow = coords.ow;
  const std::int64_t oh = patches / ow;
  for (std::int64_t xk = 0; xk < w.kh; ++xk) {
    for (std::int64_t yk = 0; yk < w.kw; ++yk) {
      const std::int64_t plane = (xk * w.kw + yk) * padded * kC0;
      Float16* drow = d + plane;
      // Patches walk row-major: patch oy*Ow + ox reads input position
      // (oy*Sh + xk - pt, ox*Sw + yk - pl) -- iterate the output grid
      // directly so the source coordinates advance incrementally.
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        const std::int64_t y = oy * w.sh + xk - w.pt;
        if (y < 0 || y >= args.ih) {
          // Whole row falls in the zero-padding border.
          std::fill_n(drow, ow * kC0, Float16());
          drow += ow * kC0;
          continue;
        }
        const Float16* const srow = s + y * args.iw * kC0;
        std::int64_t x = yk - w.pl;
        for (std::int64_t ox = 0; ox < ow; ++ox, x += w.sw, drow += kC0) {
          if (x < 0 || x >= args.iw) {
            std::fill_n(drow, kC0, Float16());
          } else {
            std::memcpy(drow, srow + x * kC0, kRowBytes);
          }
        }
      }
      // Tail rows of the last fractal.
      if (padded > patches) {
        std::fill_n(d + plane + patches * kC0, (padded - patches) * kC0,
                    Float16());
      }
    }
  }

  // Timing: in repeat mode 1 one instruction covers up to max_repeat
  // fractals of one (c1, xk, yk) plane; changing (xk, yk) needs a new
  // instruction (Section III-C).
  const std::int64_t instrs_per_plane =
      ceil_div(fractals_per_plane, arch_.max_repeat);
  const std::int64_t instrs = w.kh * w.kw * instrs_per_plane;
  const std::int64_t fractals = w.kh * w.kw * fractals_per_plane;
  // Fractal bytes written to the destination buffer (the L1 -> UB route
  // the paper's Im2Col pooling formulation rides).
  ledger_->counts.traffic.im2col_bytes += args.output_elems() * 2;
  ledger_->book(TraceKind::kIm2col, Pipe::kScu, cost_.im2col(instrs, fractals),
                {instrs, fractals, instrs * arch_.max_repeat,
                 w.kh * w.kw * (fractals_per_plane / arch_.max_repeat)},
                [&] {
                  return "mode1 instrs=" + std::to_string(instrs) +
                         " fractals=" + std::to_string(fractals);
                });
  maybe_fault_result(dst, args.output_elems());
}

void Scu::im2col_load_mode0(Span<Float16> dst, Span<Float16> src,
                            const Im2colArgs& args) {
  args.validate();
  DV_CHECK(src.kind() == BufferKind::kL1)
      << "Im2Col loads from L1, got " << to_string(src.kind());
  DV_CHECK(dst.kind() == BufferKind::kUnified ||
           dst.kind() == BufferKind::kL0A || dst.kind() == BufferKind::kL0B)
      << "Im2Col targets L0A/L0B/UB, got " << to_string(dst.kind());
  DV_CHECK_LE(args.input_elems(), src.size());
  DV_CHECK_LE(args.output_elems(), dst.size());

  const Window2d& w = args.window;
  const PatchCoords coords(args);
  const std::int64_t patches = args.patches();
  const std::int64_t groups = args.patch_fractals();
  const std::int64_t kk = w.kh * w.kw;

  // Mode 0 (Figure 5): for each group of 16 consecutive patches, emit one
  // fractal per kernel-relative position, concatenated side by side.
  // Bounds are established by the size checks above; the loop moves each
  // C0 row as one 32-byte block on raw pointers.
  Float16* const d = dst.data();
  const Float16* const s = src.data();
  constexpr std::size_t kRowBytes = kC0 * sizeof(Float16);
  for (std::int64_t g = 0; g < groups; ++g) {
    for (std::int64_t xk = 0; xk < w.kh; ++xk) {
      for (std::int64_t yk = 0; yk < w.kw; ++yk) {
        const std::int64_t fbase =
            (g * kk + xk * w.kw + yk) * kFractalElems;
        for (std::int64_t r = 0; r < kFractalRows; ++r) {
          const std::int64_t p = g * kFractalRows + r;
          Float16* const drow = d + fbase + r * kC0;
          std::int64_t y, x;
          if (p >= patches || !coords.source(p, xk, yk, &y, &x)) {
            std::fill_n(drow, kC0, Float16());
            continue;
          }
          std::memcpy(drow, s + (y * args.iw + x) * kC0, kRowBytes);
        }
      }
    }
  }

  // Timing: in mode 0 one instruction iterates (xk, yk) for a fixed
  // 16-patch group; changing the group needs a new instruction
  // (Section III-C: "multiple Im2Col are needed to also change (x, y)").
  const std::int64_t instrs_per_group = ceil_div(kk, arch_.max_repeat);
  const std::int64_t instrs = groups * instrs_per_group;
  const std::int64_t fractals = groups * kk;
  ledger_->counts.traffic.im2col_bytes += args.output_elems() * 2;
  ledger_->book(TraceKind::kIm2col, Pipe::kScu, cost_.im2col(instrs, fractals),
                {instrs, fractals, instrs * arch_.max_repeat,
                 groups * (kk / arch_.max_repeat)},
                [&] {
                  return "mode0 instrs=" + std::to_string(instrs) +
                         " fractals=" + std::to_string(fractals);
                });
  maybe_fault_result(dst, args.output_elems());
}

void Scu::col2im(Span<Float16> out, Span<Float16> src, const Im2colArgs& args) {
  args.validate();
  DV_CHECK(out.kind() == BufferKind::kUnified &&
           src.kind() == BufferKind::kUnified)
      << "Col2Im operates within the Unified Buffer";
  DV_CHECK_LE(args.input_elems(), out.size());
  DV_CHECK_LE(args.output_elems(), src.size());

  const Window2d& w = args.window;
  const PatchCoords coords(args);
  const std::int64_t patches = args.patches();
  const std::int64_t padded = args.padded_patches();
  const std::int64_t fractals_per_plane = args.patch_fractals();

  // Functional semantics (Figure 6): for each fractal, load the 16 target
  // positions from `out`, add the input fractal, store back. Overlapping
  // patches accumulate because execution is sequential; every add rounds
  // to fp16 like the hardware's 16-bit vector adder. The raw-pointer loop
  // keeps that exact per-element accumulation order (it is load-bearing
  // for bit-identity); only the per-access bounds checks are hoisted into
  // the size checks above.
  Float16* const o = out.data();
  const Float16* const s = src.data();
  const std::int64_t ow = coords.ow;
  const std::int64_t oh = patches / ow;
  for (std::int64_t xk = 0; xk < w.kh; ++xk) {
    for (std::int64_t yk = 0; yk < w.kw; ++yk) {
      const std::int64_t plane = (xk * w.kw + yk) * padded * kC0;
      const Float16* srow = s + plane;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        const std::int64_t y = oy * w.sh + xk - w.pt;
        if (y < 0 || y >= args.ih) {
          srow += ow * kC0;  // gradient into the padding border is dropped
          continue;
        }
        Float16* const obase = o + y * args.iw * kC0;
        std::int64_t x = yk - w.pl;
        for (std::int64_t ox = 0; ox < ow; ++ox, x += w.sw, srow += kC0) {
          if (x < 0 || x >= args.iw) continue;
          Float16* const orow = obase + x * kC0;
          fp16_lanes::run(fp16_lanes::Op::kAdd, orow, orow, srow, kC0);
        }
      }
    }
  }

  // Timing: Col2Im only has repeat mode 1 (Section III-D), so as with the
  // transposed Im2Col one instruction covers up to max_repeat fractals of
  // one (xk, yk) plane.
  const std::int64_t instrs_per_plane =
      ceil_div(fractals_per_plane, arch_.max_repeat);
  const std::int64_t instrs = w.kh * w.kw * instrs_per_plane;
  const std::int64_t fractals = w.kh * w.kw * fractals_per_plane;
  // Gradient fractal bytes consumed from the UB column buffer (the
  // UB -> UB scatter-accumulate route of Figure 6).
  ledger_->counts.traffic.col2im_bytes += args.output_elems() * 2;
  ledger_->book(TraceKind::kCol2im, Pipe::kScu, cost_.col2im(instrs, fractals),
                {instrs, fractals, instrs * arch_.max_repeat,
                 w.kh * w.kw * (fractals_per_plane / arch_.max_repeat)},
                [&] {
                  return "instrs=" + std::to_string(instrs) +
                         " fractals=" + std::to_string(fractals);
                });
  maybe_fault_result(out, args.input_elems());
}

}  // namespace davinci
