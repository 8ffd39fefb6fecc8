// Unit tests for the Col2Im instruction (Section III-D): accumulation of
// overlapping patches, zero-init requirement, padding drop, accounting.
#include <gtest/gtest.h>

#include <random>
#include <vector>

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

TEST_F(ScuCol2imTest, RowCallsMatchLaneByLaneAccumulate) {
  // Col2Im adds each output row's patches in one call. Against the
  // element loop it replaced -- (xk, yk, patch, lane) in order, one fp16
  // add at a time -- on Sw = 1, 2, 3, with and without padding, into a
  // non-zero `out`: the values are multiples of 1/7, so every add rounds
  // and a change of accumulation order changes bits.
  std::mt19937 rng(33);
  const auto value = [&] {
    return Float16(static_cast<float>(static_cast<int>(rng() % 200) - 100) /
                   7.0f);
  };
  for (const std::int64_t sw : {1, 2, 3}) {
    for (const std::int64_t pad : {0, 1}) {
      for (const std::int64_t sh : {1, 2}) {
        Window2d w = Window2d::pool(3, 1);
        w.sh = sh;
        w.sw = sw;
        w.pt = w.pb = w.pl = w.pr = pad;
        Im2colArgs args;
        args.window = w;
        args.ih = 9;
        args.iw = 11;
        auto src = ub_.alloc<Float16>(args.output_elems());
        auto out = ub_.alloc<Float16>(args.input_elems());
        for (std::int64_t i = 0; i < src.size(); ++i) src.at(i) = value();
        std::vector<Float16> want(static_cast<std::size_t>(out.size()));
        for (std::int64_t i = 0; i < out.size(); ++i) {
          out.at(i) = want[i] = value();
        }
        const std::int64_t ow = args.ow();
        for (std::int64_t xk = 0; xk < w.kh; ++xk) {
          for (std::int64_t yk = 0; yk < w.kw; ++yk) {
            for (std::int64_t p = 0; p < args.patches(); ++p) {
              const std::int64_t y = p / ow * w.sh + xk - w.pt;
              const std::int64_t x = p % ow * w.sw + yk - w.pl;
              if (y < 0 || y >= args.ih || x < 0 || x >= args.iw) continue;
              for (std::int64_t c = 0; c < kC0; ++c) {
                Float16& o = want[(y * args.iw + x) * kC0 + c];
                o = o + src.at(((xk * w.kw + yk) * args.padded_patches() + p) *
                                   kC0 + c);
              }
            }
          }
        }
        scu_.col2im(out, src, args);
        for (std::int64_t i = 0; i < out.size(); ++i) {
          ASSERT_EQ(out.at(i).bits(), want[i].bits())
              << "sw " << sw << " sh " << sh << " pad " << pad << " element "
              << i;
        }
        ub_.reset();
      }
    }
  }
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
