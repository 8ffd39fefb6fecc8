// Tests for the repeat-mode-0 Im2Col load (the Figure 5 iteration order),
// validated against the mode-1 load by permutation and against Figure 5's
// literal example.
#include <gtest/gtest.h>

#include "arch/arch_config.h"
#include "arch/cost_model.h"
#include "common/check.h"
#include "sim/scratch.h"
#include "sim/scu.h"
#include "sim/stats.h"
#include "test_util.h"

namespace davinci {
namespace {

class Im2colMode0Test : public ::testing::Test {
 protected:
  Im2colMode0Test()
      : ub_(BufferKind::kUnified, 4 * 1024 * 1024),
        l1_(BufferKind::kL1, 4 * 1024 * 1024),
        scu_(arch_, cost_, &stats_, &profile_) {}

  ArchConfig arch_;
  CostModel cost_;
  CycleStats stats_;
  Profile profile_;
  ScratchBuffer ub_, l1_;
  Scu scu_;
};

TEST_F(Im2colMode0Test, Figure5FractalOrder) {
  // Figure 5: 8x8 input, K(2,2), S(2,2) -> 16 patches, 4 fractals
  // "concatenated side by side", one per (xk, yk) in row-major order.
  TensorF16 in(Shape{1, 1, 8, 8, kC0});
  for (std::int64_t y = 0; y < 8; ++y) {
    for (std::int64_t x = 0; x < 8; ++x) {
      for (std::int64_t c = 0; c < kC0; ++c) {
        in.at(std::int64_t{0}, std::int64_t{0}, y, x, c) =
            Float16(static_cast<float>(y * 8 + x));
      }
    }
  }
  Im2colArgs args;
  args.window = Window2d::pool(2, 2);
  args.ih = 8;
  args.iw = 8;

  auto src = l1_.alloc<Float16>(in.size());
  for (std::int64_t i = 0; i < in.size(); ++i) src.at(i) = in.flat(i);
  auto dst = ub_.alloc<Float16>(args.output_elems());
  scu_.im2col_load_mode0(dst, src, args);

  // Fractal f holds kernel position (f / 2, f % 2) of all 16 patches.
  for (std::int64_t f = 0; f < 4; ++f) {
    const std::int64_t xk = f / 2, yk = f % 2;
    for (std::int64_t p = 0; p < 16; ++p) {
      const std::int64_t y = (p / 4) * 2 + xk, x = (p % 4) * 2 + yk;
      EXPECT_EQ(dst.at((f * 16 + p) * kC0).to_float(),
                static_cast<float>(y * 8 + x))
          << "fractal " << f << " patch " << p;
    }
  }
  // One mode-0 instruction covers all four (xk, yk) steps of the single
  // patch group ("the input in Figure 5 can be fully loaded by issuing a
  // single Im2Col ... with repeat mode 0 to repeat four times").
  EXPECT_EQ(profile_.im2col.instrs, 1);
  EXPECT_EQ(profile_.im2col.slots_used, 4);
}

TEST_F(Im2colMode0Test, IsAPermutationOfMode1) {
  // Both modes load the same fractals; mode 0 orders them (group, k),
  // mode 1 orders them (k, group).
  TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 11, 9, 77);
  const Window2d w = Window2d::pool(3, 2);
  Im2colArgs args;
  args.window = w;
  args.ih = 11;
  args.iw = 9;

  auto src = l1_.alloc<Float16>(in.size());
  for (std::int64_t i = 0; i < in.size(); ++i) src.at(i) = in.flat(i);
  auto d0 = ub_.alloc<Float16>(args.output_elems());
  auto d1 = ub_.alloc<Float16>(args.output_elems());
  scu_.im2col_load_mode0(d0, src, args);
  scu_.im2col_load(d1, src, args);

  const std::int64_t groups = args.patch_fractals();
  const std::int64_t kk = w.kh * w.kw;
  for (std::int64_t g = 0; g < groups; ++g) {
    for (std::int64_t k = 0; k < kk; ++k) {
      for (std::int64_t e = 0; e < kFractalElems; ++e) {
        ASSERT_TRUE(d0.at((g * kk + k) * kFractalElems + e) ==
                    d1.at((k * groups + g) * kFractalElems + e))
            << "group " << g << " k " << k << " elem " << e;
      }
    }
  }
}

TEST_F(Im2colMode0Test, PaddingAndTailsLoadZeros) {
  TensorF16 in(Shape{1, 1, 5, 5, kC0});
  in.fill(Float16(3.0f));
  Window2d w = Window2d::pool(3, 2);
  w.pt = w.pl = 1;
  Im2colArgs args;
  args.window = w;
  args.ih = 5;
  args.iw = 5;
  auto src = l1_.alloc<Float16>(in.size());
  for (std::int64_t i = 0; i < in.size(); ++i) src.at(i) = in.flat(i);
  auto dst = ub_.alloc<Float16>(args.output_elems());
  scu_.im2col_load_mode0(dst, src, args);
  // Patch 0, kernel position (0, 0) reads virtual (-1, -1) -> zero.
  EXPECT_TRUE(dst.at(0).is_zero());
  // Tail rows (patches beyond patches()) are zero in every fractal.
  const std::int64_t patches = args.patches();
  const std::int64_t kk = w.kh * w.kw;
  for (std::int64_t k = 0; k < kk; ++k) {
    for (std::int64_t p = patches; p < args.padded_patches(); ++p) {
      const std::int64_t g = p / kFractalRows, r = p % kFractalRows;
      EXPECT_TRUE(dst.at(((g * kk + k) * kFractalRows + r) * kC0).is_zero());
    }
  }
}

TEST_F(Im2colMode0Test, InstructionAccountingManyGroups) {
  // 33x33 K3 S2 -> 256 patches = 16 groups; 9 kernel positions fit one
  // mode-0 repeat, so one instruction per group.
  TensorF16 in(Shape{1, 1, 33, 33, kC0});
  Im2colArgs args;
  args.window = Window2d::pool(3, 2);
  args.ih = 33;
  args.iw = 33;
  auto src = l1_.alloc<Float16>(in.size());
  auto dst = ub_.alloc<Float16>(args.output_elems());
  scu_.im2col_load_mode0(dst, src, args);
  EXPECT_EQ(profile_.im2col.instrs, 16);
  EXPECT_EQ(profile_.im2col.slots_used, 16 * 9);
}

TEST_F(Im2colMode0Test, RejectsWrongBuffers) {
  Im2colArgs args;
  args.window = Window2d::pool(2, 2);
  args.ih = 4;
  args.iw = 4;
  auto ub_src = ub_.alloc<Float16>(args.input_elems());
  auto ub_dst = ub_.alloc<Float16>(args.output_elems());
  EXPECT_THROW(scu_.im2col_load_mode0(ub_dst, ub_src, args), Error);
}

}  // namespace
}  // namespace davinci
