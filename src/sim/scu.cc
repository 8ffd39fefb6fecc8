#include "sim/scu.h"

#include <algorithm>
#include <cstring>

#include "sim/fp16_lanes.h"

namespace davinci {

namespace {

// The (xk, yk) -> (y, x) source-coordinate mapping of the mode-0 Im2Col:
// patch p's (xk, yk) element comes from input position
// (p / Ow * Sh + xk - pad_top, p % Ow * Sw + yk - pad_left), and positions
// outside the input image are the virtual zero-padding border.
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
  const std::int64_t patches = args.patches();
  const std::int64_t padded = args.padded_patches();
  const std::int64_t fractals_per_plane = args.patch_fractals();

  // Functional semantics: for each kernel-relative position (xk, yk) the
  // instruction walks 16 consecutive patches per fractal, loading the
  // (xk, yk) element of each patch together with its whole C0 row. The
  // size checks above bound every access, so the loop runs on raw
  // pointers: each plane's in-image patch columns are computed once, the
  // padding columns of a row are zero-filled, and its in-image patches
  // are one memcpy at Sw = 1 (they are adjacent in the input row), one
  // 32-byte C0 row each otherwise.
  Float16* const d = dst.data();
  const Float16* const s = src.data();
  constexpr std::size_t kRowBytes = kC0 * sizeof(Float16);
  const std::int64_t ow = args.ow();
  const std::int64_t oh = patches / ow;
  for (std::int64_t xk = 0; xk < w.kh; ++xk) {
    for (std::int64_t yk = 0; yk < w.kw; ++yk) {
      const std::int64_t plane = (xk * w.kw + yk) * padded * kC0;
      const auto [first, last] = args.in_image_cols(yk);
      const std::int64_t x_first = first * w.sw + yk - w.pl;
      // Patches walk row-major: patch oy*Ow + ox reads input position
      // (oy*Sh + xk - pt, ox*Sw + yk - pl).
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        Float16* const drow = d + plane + oy * ow * kC0;
        const std::int64_t y = oy * w.sh + xk - w.pt;
        if (y < 0 || y >= args.ih || first == last) {
          // Whole row falls in the zero-padding border.
          std::fill_n(drow, ow * kC0, Float16());
          continue;
        }
        std::fill_n(drow, first * kC0, Float16());
        const Float16* const srow = s + (y * args.iw + x_first) * kC0;
        if (w.sw == 1) {
          std::memcpy(drow + first * kC0, srow, (last - first) * kRowBytes);
        } else {
          for (std::int64_t ox = first; ox < last; ++ox) {
            std::memcpy(drow + ox * kC0, srow + (ox - first) * w.sw * kC0,
                        kRowBytes);
          }
        }
        std::fill_n(drow + last * kC0, (ow - last) * kC0, Float16());
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
  const std::int64_t patches = args.patches();
  const std::int64_t padded = args.padded_patches();
  const std::int64_t fractals_per_plane = args.patch_fractals();

  // Functional semantics (Figure 6): for each fractal, load the 16 target
  // positions from `out`, add the input fractal, store back. Overlapping
  // patches accumulate because execution is sequential; every add rounds
  // to fp16 like the hardware's 16-bit vector adder. The (xk, yk, oy)
  // order below is that accumulation order, and it is load-bearing for
  // bit-identity. Within one output row the in-image patches hit distinct
  // columns, so the row's adds are one fp16_lanes call: C0 lanes per
  // patch, `out` advancing Sw*C0 and `src` C0 per patch. The size checks
  // above bound every access.
  Float16* const o = out.data();
  const Float16* const s = src.data();
  const std::int64_t ow = args.ow();
  const std::int64_t oh = patches / ow;
  for (std::int64_t xk = 0; xk < w.kh; ++xk) {
    for (std::int64_t yk = 0; yk < w.kw; ++yk) {
      const std::int64_t plane = (xk * w.kw + yk) * padded * kC0;
      // Gradient into the padding border is dropped: only the in-image
      // patch columns [first, last) accumulate.
      const auto [first, last] = args.in_image_cols(yk);
      if (first == last) continue;
      const fp16_lanes::Rows row{static_cast<int>(last - first), kC0,
                                 w.sw * kC0, w.sw * kC0, kC0};
      const std::int64_t x_first = first * w.sw + yk - w.pl;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        const std::int64_t y = oy * w.sh + xk - w.pt;
        if (y < 0 || y >= args.ih) continue;
        Float16* const orow = o + (y * args.iw + x_first) * kC0;
        const Float16* const srow = s + plane + (oy * ow + first) * kC0;
        fp16_lanes::run(fp16_lanes::Op::kAdd, orow, orow, srow, row);
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
