// Parameterized instruction-level sweep of the SCU: Im2Col (both repeat
// modes) and Col2Im against the reference transformations over a grid of
// window geometries -- the deepest coverage of the paper's central
// instructions.
#include <gtest/gtest.h>

#include "arch/arch_config.h"
#include "arch/cost_model.h"
#include "ref/im2col_ref.h"
#include "sim/scratch.h"
#include "sim/scu.h"
#include "sim/stats.h"
#include "test_util.h"

namespace davinci {
namespace {

struct ScuConfig {
  std::int64_t ih, iw, kh, kw, sh, sw, pt, pb, pl, pr;
  std::uint64_t seed;

  Window2d window() const {
    Window2d w;
    w.kh = kh;
    w.kw = kw;
    w.sh = sh;
    w.sw = sw;
    w.pt = pt;
    w.pb = pb;
    w.pl = pl;
    w.pr = pr;
    return w;
  }

  friend std::ostream& operator<<(std::ostream& os, const ScuConfig& c) {
    return os << "i" << c.ih << "x" << c.iw << "_k" << c.kh << c.kw << "_s"
              << c.sh << c.sw << "_p" << c.pt << c.pb << c.pl << c.pr;
  }
};

std::vector<ScuConfig> make_grid() {
  std::vector<ScuConfig> grid;
  std::uint64_t seed = 5000;
  const std::int64_t kernels[][2] = {{1, 1}, {2, 2}, {3, 3}, {1, 4}, {3, 2}};
  const std::int64_t strides[][2] = {{1, 1}, {2, 2}, {2, 1}, {3, 3}, {4, 4}};
  for (const auto& k : kernels) {
    for (const auto& s : strides) {
      grid.push_back(
          ScuConfig{10, 12, k[0], k[1], s[0], s[1], 0, 0, 0, 0, ++seed});
    }
  }
  // Padded variants (padding < kernel).
  grid.push_back(ScuConfig{7, 7, 3, 3, 1, 1, 1, 1, 1, 1, ++seed});
  grid.push_back(ScuConfig{8, 9, 3, 3, 2, 2, 1, 0, 0, 1, ++seed});
  grid.push_back(ScuConfig{6, 6, 2, 2, 2, 2, 1, 1, 1, 1, ++seed});
  grid.push_back(ScuConfig{9, 9, 4, 4, 2, 2, 2, 2, 2, 2, ++seed});
  // Degenerate sizes.
  grid.push_back(ScuConfig{3, 3, 3, 3, 1, 1, 0, 0, 0, 0, ++seed});
  grid.push_back(ScuConfig{2, 17, 2, 2, 1, 1, 0, 0, 0, 0, ++seed});
  return grid;
}

class ScuSweep : public ::testing::TestWithParam<ScuConfig> {
 protected:
  ScuSweep()
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

TEST_P(ScuSweep, Mode1MatchesReference) {
  const ScuConfig& c = GetParam();
  const TensorF16 in =
      testutil::random_int_nc1hwc0(1, 1, c.ih, c.iw, c.seed);
  Im2colArgs args;
  args.window = c.window();
  args.ih = c.ih;
  args.iw = c.iw;
  auto src = l1_.alloc<Float16>(in.size());
  for (std::int64_t i = 0; i < in.size(); ++i) src.at(i) = in.flat(i);
  auto dst = ub_.alloc<Float16>(args.output_elems());
  scu_.im2col_load(dst, src, args);
  const TensorF16 want = ref::im2col(in, args.window);
  for (std::int64_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(dst.at(i) == want.flat(i)) << "element " << i;
  }
}

TEST_P(ScuSweep, Mode0IsPermutationOfMode1) {
  const ScuConfig& c = GetParam();
  const TensorF16 in =
      testutil::random_int_nc1hwc0(1, 1, c.ih, c.iw, c.seed + 1);
  Im2colArgs args;
  args.window = c.window();
  args.ih = c.ih;
  args.iw = c.iw;
  auto src = l1_.alloc<Float16>(in.size());
  for (std::int64_t i = 0; i < in.size(); ++i) src.at(i) = in.flat(i);
  auto d0 = ub_.alloc<Float16>(args.output_elems());
  auto d1 = ub_.alloc<Float16>(args.output_elems());
  scu_.im2col_load_mode0(d0, src, args);
  scu_.im2col_load(d1, src, args);
  const std::int64_t groups = args.patch_fractals();
  const std::int64_t kk = c.kh * c.kw;
  for (std::int64_t g = 0; g < groups; ++g) {
    for (std::int64_t k = 0; k < kk; ++k) {
      for (std::int64_t e = 0; e < kFractalElems; ++e) {
        ASSERT_TRUE(d0.at((g * kk + k) * kFractalElems + e) ==
                    d1.at((k * groups + g) * kFractalElems + e));
      }
    }
  }
}

TEST_P(ScuSweep, Col2imMatchesReference) {
  const ScuConfig& c = GetParam();
  const Window2d w = c.window();
  TensorF16 cols(Shape{1, 1, c.kh, c.kw,
                       round_up(w.out_h(c.ih) * w.out_w(c.iw), kFractalRows),
                       kC0});
  cols.fill_random_ints(c.seed + 2, -4, 4);
  Im2colArgs args;
  args.window = w;
  args.ih = c.ih;
  args.iw = c.iw;
  auto src = ub_.alloc<Float16>(args.output_elems());
  for (std::int64_t i = 0; i < cols.size(); ++i) src.at(i) = cols.flat(i);
  auto out = ub_.alloc<Float16>(c.ih * c.iw * kC0);
  for (std::int64_t i = 0; i < out.size(); ++i) out.at(i) = Float16();
  scu_.col2im(out, src, args);
  const TensorF16 want = ref::col2im(cols, w, c.ih, c.iw);
  for (std::int64_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(out.at(i) == want.flat(i)) << "element " << i;
  }
}

TEST_P(ScuSweep, AccountingConsistent) {
  const ScuConfig& c = GetParam();
  Im2colArgs args;
  args.window = c.window();
  args.ih = c.ih;
  args.iw = c.iw;
  auto src = l1_.alloc<Float16>(args.input_elems());
  auto dst = ub_.alloc<Float16>(args.output_elems());
  scu_.im2col_load(dst, src, args);
  EXPECT_EQ(profile_.im2col.slots_used, c.kh * c.kw * args.patch_fractals());
  EXPECT_EQ(stats_.scu_cycles, cost_.im2col(profile_.im2col.instrs,
                                            profile_.im2col.slots_used));
}

INSTANTIATE_TEST_SUITE_P(Grid, ScuSweep, ::testing::ValuesIn(make_grid()),
                         [](const ::testing::TestParamInfo<ScuConfig>& i) {
                           std::ostringstream os;
                           os << i.param;
                           return os.str();
                         });

}  // namespace
}  // namespace davinci
