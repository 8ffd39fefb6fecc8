// Property-based sweeps over window geometries: every implementation of
// the same operator must agree bit-exactly on integer-valued fp16 data,
// and structural invariants must hold. Uses parameterized gtest over a
// grid of (kernel, stride, input, channels) configurations.
#include <gtest/gtest.h>

#include "kernels/pooling.h"
#include "ref/im2col_ref.h"
#include "ref/pooling_ref.h"
#include "test_util.h"

namespace davinci {
namespace {

using akg::PoolImpl;
using kernels::MergeImpl;
using kernels::PoolInputs;
using kernels::PoolOp;
using kernels::PoolOpKind;

struct PoolConfig {
  std::int64_t h, w, kh, kw, sh, sw, n, c1;
  std::uint64_t seed;

  Window2d window() const {
    Window2d win;
    win.kh = kh;
    win.kw = kw;
    win.sh = sh;
    win.sw = sw;
    return win;
  }

  friend std::ostream& operator<<(std::ostream& os, const PoolConfig& c) {
    return os << "h" << c.h << "w" << c.w << "_k" << c.kh << "x" << c.kw
              << "_s" << c.sh << "x" << c.sw << "_n" << c.n << "c" << c.c1;
  }
};

std::vector<PoolConfig> make_grid() {
  std::vector<PoolConfig> grid;
  std::uint64_t seed = 1000;
  const std::int64_t kernels[][2] = {{2, 2}, {3, 3}, {2, 3}, {4, 2}};
  const std::int64_t strides[][2] = {{1, 1}, {2, 2}, {3, 3}, {1, 2}, {2, 1}};
  const std::int64_t sizes[][2] = {{8, 8}, {11, 9}, {7, 16}};
  for (const auto& k : kernels) {
    for (const auto& s : strides) {
      for (const auto& hw : sizes) {
        if (hw[0] < k[0] || hw[1] < k[1]) continue;
        grid.push_back(
            PoolConfig{hw[0], hw[1], k[0], k[1], s[0], s[1], 1, 1, ++seed});
      }
    }
  }
  // A few multi-channel / batched configurations.
  grid.push_back(PoolConfig{9, 9, 3, 3, 2, 2, 2, 3, ++seed});
  grid.push_back(PoolConfig{12, 10, 2, 2, 2, 2, 1, 5, ++seed});
  return grid;
}

class PoolProperty : public ::testing::TestWithParam<PoolConfig> {};

TEST_P(PoolProperty, AllForwardImplsAgree) {
  const PoolConfig& c = GetParam();
  Device dev;
  const TensorF16 in =
      testutil::random_int_nc1hwc0(c.n, c.c1, c.h, c.w, c.seed);
  const Window2d w = c.window();
  const TensorF16 want = ref::maxpool_fwd(in, w);
  for (PoolImpl impl : {PoolImpl::kDirect, PoolImpl::kIm2col,
                        PoolImpl::kExpansion, PoolImpl::kXYSplit}) {
    auto got = kernels::run_pool(
        dev, PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w, .fwd = impl},
        PoolInputs{.in = &in});
    testutil::expect_equal_f16(got.out, want, akg::to_string(impl));
  }
}

TEST_P(PoolProperty, MaxpoolOutputIsAPatchElement) {
  // Every output value must literally occur in its patch (max selects, it
  // never invents values).
  const PoolConfig& c = GetParam();
  const TensorF16 in =
      testutil::random_int_nc1hwc0(c.n, c.c1, c.h, c.w, c.seed + 7);
  const Window2d w = c.window();
  const TensorF16 out = ref::maxpool_fwd(in, w);
  const std::int64_t oh = w.out_h(c.h), ow = w.out_w(c.w);
  for (std::int64_t b = 0; b < c.n; ++b) {
    for (std::int64_t q = 0; q < c.c1; ++q) {
      for (std::int64_t i = 0; i < oh; ++i) {
        for (std::int64_t j = 0; j < ow; ++j) {
          for (std::int64_t cc = 0; cc < kC0; ++cc) {
            const float m = out.at(b, q, i, j, cc).to_float();
            bool found = false;
            bool dominated = true;
            for (std::int64_t y = i * w.sh; y < i * w.sh + w.kh; ++y) {
              for (std::int64_t x = j * w.sw; x < j * w.sw + w.kw; ++x) {
                const float v = in.at(b, q, y, x, cc).to_float();
                found |= v == m;
                dominated &= v <= m;
              }
            }
            ASSERT_TRUE(found && dominated)
                << "output (" << i << "," << j << ") lane " << cc;
          }
        }
      }
    }
  }
}

TEST_P(PoolProperty, BackwardImplsAgree) {
  const PoolConfig& c = GetParam();
  Device dev;
  const TensorF16 in =
      testutil::random_int_nc1hwc0(c.n, c.c1, c.h, c.w, c.seed + 13);
  const Window2d w = c.window();
  const TensorF16 mask = ref::maxpool_argmax_mask(in, w);
  TensorF16 grad(Shape{c.n, c.c1, w.out_h(c.h), w.out_w(c.w), kC0});
  grad.fill_random_ints(c.seed + 14, 0, 6);
  const TensorF16 want = ref::maxpool_bwd(mask, grad, w, c.h, c.w);
  auto vadd =
      kernels::run_pool(
          dev,
          PoolOp{.kind = PoolOpKind::kMaxBwd, .window = w,
                 .merge = MergeImpl::kVadd},
          PoolInputs{.mask = &mask, .grad = &grad, .ih = c.h, .iw = c.w});
  auto col2im = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxBwd, .window = w,
             .merge = MergeImpl::kCol2im},
      PoolInputs{.mask = &mask, .grad = &grad, .ih = c.h, .iw = c.w});
  testutil::expect_equal_f16(vadd.grad_in, want, "vadd");
  testutil::expect_equal_f16(col2im.grad_in, want, "col2im");
}

TEST_P(PoolProperty, Col2imOfIm2colIsCoverageScaling) {
  // col2im(im2col(ones)) counts, per input position, the number of patches
  // covering it; on an arbitrary tensor the result is x * coverage.
  const PoolConfig& c = GetParam();
  const Window2d w = c.window();
  TensorF16 ones(Shape{1, 1, c.h, c.w, kC0});
  ones.fill(Float16(1.0f));
  const TensorF16 coverage = ref::col2im(ref::im2col(ones, w), w, c.h, c.w);
  const TensorF16 x = testutil::random_int_nc1hwc0(1, 1, c.h, c.w,
                                                   c.seed + 21, 0, 4);
  const TensorF16 back = ref::col2im(ref::im2col(x, w), w, c.h, c.w);
  for (std::int64_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(back.flat(i).to_float(),
              x.flat(i).to_float() * coverage.flat(i).to_float())
        << "element " << i;
    // Coverage is bounded by the window size.
    ASSERT_LE(coverage.flat(i).to_float(),
              static_cast<float>(w.kh * w.kw));
  }
}

TEST_P(PoolProperty, AvgpoolImplsAgree) {
  const PoolConfig& c = GetParam();
  Device dev;
  const TensorF16 in =
      testutil::random_int_nc1hwc0(c.n, c.c1, c.h, c.w, c.seed + 31);
  const Window2d w = c.window();
  const TensorF16 want = ref::avgpool_fwd(in, w);
  for (PoolImpl impl : {PoolImpl::kDirect, PoolImpl::kIm2col}) {
    auto got = kernels::run_pool(
        dev, PoolOp{.kind = PoolOpKind::kAvgFwd, .window = w, .fwd = impl},
        PoolInputs{.in = &in});
    testutil::expect_equal_f16(got.out, want, akg::to_string(impl));
  }
  TensorF16 grad(Shape{c.n, c.c1, w.out_h(c.h), w.out_w(c.w), kC0});
  grad.fill_random_ints(c.seed + 32, -6, 6);
  const TensorF16 want_b = ref::avgpool_bwd(grad, w, c.h, c.w);
  for (MergeImpl m : {MergeImpl::kVadd, MergeImpl::kCol2im}) {
    auto got = kernels::run_pool(
        dev, PoolOp{.kind = PoolOpKind::kAvgBwd, .window = w, .merge = m},
        PoolInputs{.grad = &grad, .ih = c.h, .iw = c.w});
    testutil::expect_equal_f16(got.grad_in, want_b, kernels::to_string(m));
  }
}

TEST_P(PoolProperty, MaskMarksExactlyTheMaxima) {
  const PoolConfig& c = GetParam();
  const TensorF16 in =
      testutil::random_int_nc1hwc0(1, 1, c.h, c.w, c.seed + 41);
  const Window2d w = c.window();
  const TensorF16 mask = ref::maxpool_argmax_mask(in, w);
  const TensorF16 out = ref::maxpool_fwd(in, w);
  const std::int64_t oh = w.out_h(c.h), ow = w.out_w(c.w);
  for (std::int64_t p = 0; p < oh * ow; ++p) {
    const std::int64_t i = p / ow, j = p % ow;
    for (std::int64_t cc = 0; cc < kC0; ++cc) {
      const float m = out.at(std::int64_t{0}, std::int64_t{0}, i, j, cc)
                          .to_float();
      for (std::int64_t kh = 0; kh < w.kh; ++kh) {
        for (std::int64_t kw = 0; kw < w.kw; ++kw) {
          const float v =
              in.at(std::int64_t{0}, std::int64_t{0}, i * w.sh + kh,
                    j * w.sw + kw, cc)
                  .to_float();
          const float bit =
              mask.at(std::int64_t{0}, std::int64_t{0}, kh, kw, p, cc)
                  .to_float();
          ASSERT_EQ(bit, v == m ? 1.0f : 0.0f);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, PoolProperty,
                         ::testing::ValuesIn(make_grid()),
                         [](const ::testing::TestParamInfo<PoolConfig>& i) {
                           std::ostringstream os;
                           os << i.param;
                           return os.str();
                         });

}  // namespace
}  // namespace davinci
