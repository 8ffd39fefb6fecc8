// Unit tests for the Im2Col instruction (Section III-C), validated against
// the independent reference transformation.
#include <gtest/gtest.h>

#include "arch/arch_config.h"
#include "arch/cost_model.h"
#include "common/check.h"
#include "ref/im2col_ref.h"
#include "sim/scratch.h"
#include "sim/scu.h"
#include "sim/stats.h"
#include "test_util.h"

namespace davinci {
namespace {

class ScuIm2colTest : public ::testing::Test {
 protected:
  ScuIm2colTest()
      : ub_(BufferKind::kUnified, 4 * 1024 * 1024),
        l1_(BufferKind::kL1, 4 * 1024 * 1024),
        scu_(arch_, cost_, &stats_, &profile_) {}

  // Loads one (n=0, c1=0) slice of `in` through the SCU and compares with
  // the reference im2col.
  void check_against_reference(const TensorF16& in, const Window2d& w) {
    const std::int64_t ih = in.shape()[2], iw = in.shape()[3];
    Im2colArgs args;
    args.window = w;
    args.ih = ih;
    args.iw = iw;

    auto src = l1_.alloc<Float16>(ih * iw * kC0);
    for (std::int64_t i = 0; i < ih * iw * kC0; ++i) {
      src.at(i) = in.flat(i);
    }
    auto dst = ub_.alloc<Float16>(args.output_elems());
    scu_.im2col_load(dst, src, args);

    const TensorF16 want = ref::im2col(in, w);
    ASSERT_EQ(want.size(), args.output_elems());
    for (std::int64_t i = 0; i < want.size(); ++i) {
      ASSERT_TRUE(dst.at(i) == want.flat(i))
          << "element " << i << ": " << dst.at(i).to_float() << " vs "
          << want.flat(i).to_float();
    }
    ub_.reset();
    l1_.reset();
  }

  ArchConfig arch_;
  CostModel cost_;
  CycleStats stats_;
  Profile profile_;
  ScratchBuffer ub_, l1_;
  Scu scu_;
};

TEST_F(ScuIm2colTest, Figure5Example) {
  // The paper's Figure 5: (Ih, Iw) = (8, 8), K = (2, 2), S = (2, 2),
  // exactly 16 patches -> one fractal per kernel position, 4 fractals.
  TensorF16 in(Shape{1, 1, 8, 8, kC0});
  for (std::int64_t y = 0; y < 8; ++y) {
    for (std::int64_t x = 0; x < 8; ++x) {
      for (std::int64_t c = 0; c < kC0; ++c) {
        in.at(std::int64_t{0}, std::int64_t{0}, y, x, c) =
            Float16(static_cast<float>(y * 8 + x));
      }
    }
  }
  const Window2d w = Window2d::pool(2, 2);
  Im2colArgs args;
  args.window = w;
  args.ih = 8;
  args.iw = 8;
  EXPECT_EQ(args.patches(), 16);
  EXPECT_EQ(args.patch_fractals(), 1);
  EXPECT_EQ(args.output_elems(), 4 * kFractalElems);

  auto src = l1_.alloc<Float16>(8 * 8 * kC0);
  for (std::int64_t i = 0; i < in.size(); ++i) src.at(i) = in.flat(i);
  auto dst = ub_.alloc<Float16>(args.output_elems());
  scu_.im2col_load(dst, src, args);

  // First fractal, (xk, yk) = (0, 0): the top-left element of each patch.
  for (std::int64_t p = 0; p < 16; ++p) {
    const std::int64_t y = (p / 4) * 2, x = (p % 4) * 2;
    EXPECT_EQ(dst.at(p * kC0).to_float(), static_cast<float>(y * 8 + x));
  }
  // Second fractal, (xk, yk) = (0, 1): one to the right.
  for (std::int64_t p = 0; p < 16; ++p) {
    const std::int64_t y = (p / 4) * 2, x = (p % 4) * 2 + 1;
    EXPECT_EQ(dst.at(kFractalElems + p * kC0).to_float(),
              static_cast<float>(y * 8 + x));
  }
  // One instruction in repeat mode 1 per kernel position.
  EXPECT_EQ(profile_.im2col.instrs, 4);
  EXPECT_EQ(profile_.im2col.slots_used, 4);
}

TEST_F(ScuIm2colTest, MatchesReferenceNonOverlapping) {
  TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 8, 8, 1);
  check_against_reference(in, Window2d::pool(2, 2));
}

TEST_F(ScuIm2colTest, MatchesReferenceOverlapping) {
  TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 11, 9, 2);
  check_against_reference(in, Window2d::pool(3, 2));
}

TEST_F(ScuIm2colTest, MatchesReferenceStride1) {
  TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 7, 7, 3);
  check_against_reference(in, Window2d::pool(3, 1));
}

TEST_F(ScuIm2colTest, MatchesReferenceAsymmetricWindow) {
  TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 10, 13, 4);
  Window2d w;
  w.kh = 2;
  w.kw = 4;
  w.sh = 3;
  w.sw = 2;
  check_against_reference(in, w);
}

TEST_F(ScuIm2colTest, MatchesReferenceWithPadding) {
  TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 7, 7, 5);
  Window2d w = Window2d::pool(3, 2);
  w.pt = w.pb = w.pl = w.pr = 1;
  check_against_reference(in, w);
}

TEST_F(ScuIm2colTest, PaddingLoadsZeros) {
  TensorF16 in(Shape{1, 1, 4, 4, kC0});
  in.fill(Float16(7.0f));
  Window2d w = Window2d::pool(3, 1);
  w.pt = w.pl = 1;
  Im2colArgs args;
  args.window = w;
  args.ih = 4;
  args.iw = 4;
  auto src = l1_.alloc<Float16>(in.size());
  for (std::int64_t i = 0; i < in.size(); ++i) src.at(i) = in.flat(i);
  auto dst = ub_.alloc<Float16>(args.output_elems());
  scu_.im2col_load(dst, src, args);
  // Kernel position (0, 0) of patch 0 reads the virtual (-1, -1) -> zeros.
  for (std::int64_t c = 0; c < kC0; ++c) {
    EXPECT_TRUE(dst.at(c).is_zero());
  }
}

TEST_F(ScuIm2colTest, TailPatchRowsAreZeroFilled) {
  // 5x5 input, K2 S1 -> 16 patches... choose 6x6 -> 25 patches: one full
  // fractal plus 9 valid rows in the second; rows 25..31 must be zero.
  TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 6, 6, 6, 1, 9);
  Window2d w = Window2d::pool(2, 1);
  Im2colArgs args;
  args.window = w;
  args.ih = 6;
  args.iw = 6;
  EXPECT_EQ(args.patches(), 25);
  EXPECT_EQ(args.padded_patches(), 32);
  auto src = l1_.alloc<Float16>(in.size());
  for (std::int64_t i = 0; i < in.size(); ++i) src.at(i) = in.flat(i);
  auto dst = ub_.alloc<Float16>(args.output_elems());
  scu_.im2col_load(dst, src, args);
  for (std::int64_t k = 0; k < 4; ++k) {
    for (std::int64_t p = 25; p < 32; ++p) {
      for (std::int64_t c = 0; c < kC0; ++c) {
        EXPECT_TRUE(dst.at((k * 32 + p) * kC0 + c).is_zero());
      }
    }
  }
}

TEST_F(ScuIm2colTest, InstructionAndFractalAccounting) {
  // 73x73 patches = 5329 -> 334 fractals per plane; with max_repeat 255
  // each plane needs 2 instructions; 9 planes.
  TensorF16 in(Shape{1, 1, 147, 147, kC0});
  const Window2d w = Window2d::pool(3, 2);
  Im2colArgs args;
  args.window = w;
  args.ih = 147;
  args.iw = 147;
  EXPECT_EQ(args.patch_fractals(), 334);
  auto src = l1_.alloc<Float16>(in.size());
  auto dst = ub_.alloc<Float16>(args.output_elems());
  // 9 * 334 * 256 * 2 bytes = 1.5 MiB exceeds the real UB; use a test
  // buffer large enough (this test checks accounting, not capacity).
  scu_.im2col_load(dst, src, args);
  EXPECT_EQ(profile_.im2col.instrs, 9 * 2);
  EXPECT_EQ(profile_.im2col.slots_used, 9 * 334);
  EXPECT_EQ(stats_.scu_cycles, cost_.im2col(18, 3006));
}

TEST_F(ScuIm2colTest, RejectsWrongBuffers) {
  TensorF16 in(Shape{1, 1, 4, 4, kC0});
  Im2colArgs args;
  args.window = Window2d::pool(2, 2);
  args.ih = 4;
  args.iw = 4;
  auto ub_src = ub_.alloc<Float16>(in.size());
  auto ub_dst = ub_.alloc<Float16>(args.output_elems());
  EXPECT_THROW(scu_.im2col_load(ub_dst, ub_src, args), Error);  // src not L1
  auto l1_src = l1_.alloc<Float16>(in.size());
  auto l1_dst = l1_.alloc<Float16>(args.output_elems());
  EXPECT_THROW(scu_.im2col_load(l1_dst, l1_src, args), Error);  // dst in L1
}

TEST_F(ScuIm2colTest, RejectsUndersizedSpans) {
  Im2colArgs args;
  args.window = Window2d::pool(2, 2);
  args.ih = 4;
  args.iw = 4;
  auto src = l1_.alloc<Float16>(args.input_elems() - 1);
  auto dst = ub_.alloc<Float16>(args.output_elems());
  EXPECT_THROW(scu_.im2col_load(dst, src, args), Error);
}

}  // namespace
}  // namespace davinci
