// Unit tests for the Col2Im instruction (Section III-D): accumulation of
// overlapping patches, zero-init requirement, padding drop, accounting.
#include <gtest/gtest.h>

#include "arch/arch_config.h"
#include "arch/cost_model.h"
#include "common/check.h"
#include "ref/im2col_ref.h"
#include "sim/scratch.h"
#include "sim/scu.h"
#include "test_util.h"

namespace davinci {
namespace {

class ScuCol2imTest : public ::testing::Test {
 protected:
  ScuCol2imTest()
      : ub_(BufferKind::kUnified, 4 * 1024 * 1024),
        l1_(BufferKind::kL1, 4 * 1024 * 1024),
        scu_(arch_, cost_, &ledger_) {}

  // Runs Col2Im on an im2col-shaped tensor (n=1, c1=1 slice) and compares
  // against the reference col2im.
  void check_against_reference(const TensorF16& cols, const Window2d& w,
                               std::int64_t ih, std::int64_t iw) {
    Im2colArgs args;
    args.window = w;
    args.ih = ih;
    args.iw = iw;
    ASSERT_EQ(cols.size(), args.output_elems());

    auto src = ub_.alloc<Float16>(args.output_elems());
    for (std::int64_t i = 0; i < cols.size(); ++i) src.at(i) = cols.flat(i);
    auto out = ub_.alloc<Float16>(ih * iw * kC0);
    for (std::int64_t i = 0; i < out.size(); ++i) out.at(i) = Float16();
    scu_.col2im(out, src, args);

    // Reference expects the 6-D shape.
    TensorF16 cols6(Shape{1, 1, w.kh, w.kw, args.padded_patches(), kC0});
    for (std::int64_t i = 0; i < cols.size(); ++i) {
      cols6.flat(i) = cols.flat(i);
    }
    const TensorF16 want = ref::col2im(cols6, w, ih, iw);
    for (std::int64_t i = 0; i < want.size(); ++i) {
      ASSERT_TRUE(out.at(i) == want.flat(i))
          << "element " << i << ": " << out.at(i).to_float() << " vs "
          << want.flat(i).to_float();
    }
    ub_.reset();
  }

  ArchConfig arch_;
  CostModel cost_;
  Ledger ledger_;
  ScratchBuffer ub_, l1_;
  Scu scu_;
};

TEST_F(ScuCol2imTest, RoundTripNonOverlapping) {
  // With K == S each input element belongs to exactly one patch, so
  // col2im(im2col(x)) == x ("If there is no overlap ... Col2im simply
  // returns the matrix to its original shape", Section II-B).
  TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 8, 8, 10);
  const Window2d w = Window2d::pool(2, 2);
  const TensorF16 cols = ref::im2col(in, w);
  Im2colArgs args;
  args.window = w;
  args.ih = 8;
  args.iw = 8;

  auto src = ub_.alloc<Float16>(args.output_elems());
  for (std::int64_t i = 0; i < cols.size(); ++i) src.at(i) = cols.flat(i);
  auto out = ub_.alloc<Float16>(8 * 8 * kC0);
  for (std::int64_t i = 0; i < out.size(); ++i) out.at(i) = Float16();
  scu_.col2im(out, src, args);

  for (std::int64_t i = 0; i < in.size(); ++i) {
    ASSERT_TRUE(out.at(i) == in.flat(i)) << "element " << i;
  }
}

TEST_F(ScuCol2imTest, OverlapsAreSummed) {
  // K3 S2 on integer data: col2im(im2col(x)) multiplies each element by
  // its patch-coverage count (Figure 2's duplicated {3, 8, 13} elements).
  TensorF16 in(Shape{1, 1, 5, 5, kC0});
  in.fill(Float16(1.0f));
  const Window2d w = Window2d::pool(3, 2);
  const TensorF16 cols = ref::im2col(in, w);
  Im2colArgs args;
  args.window = w;
  args.ih = 5;
  args.iw = 5;

  auto src = ub_.alloc<Float16>(args.output_elems());
  for (std::int64_t i = 0; i < cols.size(); ++i) src.at(i) = cols.flat(i);
  auto out = ub_.alloc<Float16>(5 * 5 * kC0);
  for (std::int64_t i = 0; i < out.size(); ++i) out.at(i) = Float16();
  scu_.col2im(out, src, args);

  // Coverage counts for a 5x5 input with K3 S2: middle row/col (index 2)
  // belongs to both patches in that axis.
  auto coverage = [](std::int64_t i) { return i == 2 ? 2 : 1; };
  for (std::int64_t y = 0; y < 5; ++y) {
    for (std::int64_t x = 0; x < 5; ++x) {
      const float want = static_cast<float>(coverage(y) * coverage(x));
      ASSERT_EQ(out.at((y * 5 + x) * kC0).to_float(), want)
          << "(" << y << "," << x << ")";
    }
  }
}

TEST_F(ScuCol2imTest, MatchesReferenceRandomOverlapping) {
  const Window2d w = Window2d::pool(3, 2);
  TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 9, 11, 21);
  check_against_reference(ref::im2col(in, w), w, 9, 11);
}

TEST_F(ScuCol2imTest, MatchesReferenceStride1) {
  const Window2d w = Window2d::pool(2, 1);
  TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 6, 7, 22, 0, 3);
  check_against_reference(ref::im2col(in, w), w, 6, 7);
}

TEST_F(ScuCol2imTest, PaddingContributionsDropped) {
  Window2d w = Window2d::pool(3, 2);
  w.pt = w.pb = w.pl = w.pr = 1;
  TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 7, 7, 23, 0, 4);
  // The reference drops padding contributions the same way; equality here
  // proves the instruction's semantics match.
  check_against_reference(ref::im2col(in, w), w, 7, 7);
}

TEST_F(ScuCol2imTest, InstructionAccounting) {
  const Window2d w = Window2d::pool(3, 2);
  TensorF16 in = testutil::random_int_nc1hwc0(1, 1, 9, 9, 24);
  Im2colArgs args;
  args.window = w;
  args.ih = 9;
  args.iw = 9;  // 16 patches -> 1 fractal per plane
  auto src = ub_.alloc<Float16>(args.output_elems());
  auto out = ub_.alloc<Float16>(9 * 9 * kC0);
  for (std::int64_t i = 0; i < out.size(); ++i) out.at(i) = Float16();
  scu_.col2im(out, src, args);
  EXPECT_EQ(ledger_.profile.col2im.instrs, 9);
  EXPECT_EQ(ledger_.profile.col2im.slots_used, 9);
  EXPECT_EQ(ledger_.sched.busy(Pipe::kScu), cost_.col2im(9, 9));
}

TEST_F(ScuCol2imTest, RequiresUnifiedBufferOperands) {
  Im2colArgs args;
  args.window = Window2d::pool(2, 2);
  args.ih = 4;
  args.iw = 4;
  auto src_l1 = l1_.alloc<Float16>(args.output_elems());
  auto out_ub = ub_.alloc<Float16>(4 * 4 * kC0);
  EXPECT_THROW(scu_.col2im(out_ub, src_l1, args), Error);
}

}  // namespace
}  // namespace davinci
