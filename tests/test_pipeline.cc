// Tests for the forward-pipeline runner: multi-layer chains on the
// simulated device validated against the reference chain, and the
// standard-vs-accelerated pooling stacks compared within one network.
#include "nets/pipeline.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace davinci {
namespace {

using nets::Pipeline;
using nets::PoolingStack;

TensorF32 make_weights(std::int64_t cout, std::int64_t c, std::int64_t k,
                       std::uint64_t seed) {
  TensorF32 w(Shape{cout, c, k, k});
  w.fill_random_ints(seed, -1, 1);
  return w;
}

TEST(Pipeline, ConvPoolChainMatchesReference) {
  Pipeline p;
  p.conv(make_weights(16, 16, 3, 1001), Window2d::pool(3, 1), "conv1")
      .maxpool(Window2d::pool(2, 2), "pool1")
      .conv(make_weights(16, 16, 3, 1002), Window2d::pool(3, 1), "conv2")
      .maxpool(Window2d::pool(2, 2), "pool2");

  TensorF32 in_nchw(Shape{1, 16, 22, 22});
  in_nchw.fill_random_ints(1003, -2, 2);

  Device dev;
  const TensorF16 in = nchw_to_nc1hwc0(in_nchw);
  auto run = p.run(dev, in, PoolingStack::kAccelerated);
  const TensorF32 want = p.reference(in_nchw);
  const TensorF32 got = nc1hwc0_to_nchw(run.out, 16);
  ASSERT_EQ(got.shape(), want.shape());
  for (std::int64_t i = 0; i < got.size(); ++i) {
    // One fp16 rounding per layer on each side; integer-ish data keeps
    // the chains exactly aligned.
    ASSERT_EQ(got.flat(i), want.flat(i)) << "element " << i;
  }
}

TEST(Pipeline, BothStacksProduceIdenticalOutputs) {
  Pipeline p;
  p.conv(make_weights(16, 16, 3, 1011), Window2d::pool(3, 2), "conv")
      .maxpool(Window2d::pool(3, 2), "pool")
      .global_avgpool("gap");

  TensorF32 in_nchw(Shape{1, 16, 31, 31});
  in_nchw.fill_random_ints(1012, -2, 2);
  Device dev;
  const TensorF16 in = nchw_to_nc1hwc0(in_nchw);
  auto a = p.run(dev, in, PoolingStack::kStandard);
  auto b = p.run(dev, in, PoolingStack::kAccelerated);
  testutil::expect_equal_f16(a.out, b.out, "stack equivalence");
  // ...but the accelerated stack spends fewer cycles on the pooling layer.
  EXPECT_LT(b.layers[1].run.device_cycles, a.layers[1].run.device_cycles);
  // Conv and global-avgpool layers are identical in both stacks.
  EXPECT_EQ(a.layers[0].run.device_cycles, b.layers[0].run.device_cycles);
  EXPECT_EQ(a.layers[2].run.device_cycles, b.layers[2].run.device_cycles);
}

TEST(Pipeline, PerLayerAccounting) {
  Pipeline p;
  p.conv(make_weights(16, 16, 3, 1021), Window2d::pool(3, 1), "c1")
      .avgpool(Window2d::pool(2, 2), "a1");
  TensorF32 in_nchw(Shape{1, 16, 12, 12});
  in_nchw.fill_random_ints(1022, -2, 2);
  Device dev;
  auto run = p.run(dev, nchw_to_nc1hwc0(in_nchw),
                   PoolingStack::kAccelerated);
  ASSERT_EQ(run.layers.size(), 2u);
  EXPECT_EQ(run.layers[0].name, "c1");
  EXPECT_EQ(run.layers[1].name, "a1");
  EXPECT_GT(run.layers[0].run.device_cycles, 0);
  EXPECT_GT(run.layers[1].run.device_cycles, 0);
  EXPECT_EQ(run.total_cycles, run.layers[0].run.device_cycles +
                                  run.layers[1].run.device_cycles);
  EXPECT_EQ(run.layers[0].out_shape, Shape({1, 1, 10, 10, kC0}));
  EXPECT_EQ(run.layers[1].out_shape, Shape({1, 1, 5, 5, kC0}));
}

TEST(Pipeline, GlobalAvgPoolChain) {
  Pipeline p;
  p.maxpool(Window2d::pool(2, 2), "pool").global_avgpool("gap");
  const TensorF16 in = testutil::random_int_nc1hwc0(1, 2, 16, 16, 1031,
                                                    -2, 2);
  Device dev;
  auto run = p.run(dev, in, PoolingStack::kAccelerated);
  EXPECT_EQ(run.out.shape(), Shape({1, 2, 1, 1, kC0}));
}

TEST(Pipeline, RejectsMalformedConvWeights) {
  Pipeline p;
  TensorF32 bad(Shape{16, 16, 3});  // rank 3
  EXPECT_THROW(p.conv(std::move(bad), Window2d::pool(3, 1)), Error);
  TensorF32 mismatch(Shape{16, 16, 5, 5});  // kernel dims disagree
  EXPECT_THROW(p.conv(std::move(mismatch), Window2d::pool(3, 1)), Error);
}

TEST(Pipeline, RejectsBatchedInput) {
  Pipeline p;
  p.maxpool(Window2d::pool(2, 2));
  Device dev;
  const TensorF16 in = testutil::random_int_nc1hwc0(2, 1, 8, 8, 1041);
  EXPECT_THROW(p.run(dev, in, PoolingStack::kStandard), Error);
}

}  // namespace
}  // namespace davinci
