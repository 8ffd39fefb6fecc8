// Runs an InceptionV3-like stem (conv -> conv -> maxpool -> conv ->
// maxpool -> global average pool) through the simulator twice -- once
// with the standard pooling lowering, once with the Im2col/Col2im-based
// one -- and reports per-layer cycles. Outputs are verified identical and
// checked against the reference chain: adopting the accelerated pooling
// changes schedules, never results.
//
//   $ ./examples/cnn_stem
#include <cstdio>

#include "nets/pipeline.h"
#include "tensor/fractal.h"

using namespace davinci;

namespace {

TensorF32 weights(std::int64_t cout, std::int64_t c, std::int64_t k,
                  std::uint64_t seed) {
  TensorF32 w(Shape{cout, c, k, k});
  w.fill_random_ints(seed, -1, 1);
  return w;
}

}  // namespace

int main() {
  nets::Pipeline stem;
  stem.conv(weights(32, 16, 3, 1), Window2d::pool(3, 2), "conv_3x3/2")
      .conv(weights(32, 32, 3, 2), Window2d::pool(3, 1), "conv_3x3/1")
      .maxpool(Window2d::pool(3, 2), "maxpool_3x3/2")
      .conv(weights(48, 32, 3, 3), Window2d::pool(3, 1), "conv_3x3/1b")
      .maxpool(Window2d::pool(3, 2), "maxpool_3x3/2b")
      .global_avgpool("global_avgpool");

  TensorF32 image(Shape{1, 16, 63, 63});
  image.fill_random_ints(7, -2, 2);

  Device dev;
  const TensorF16 input = nchw_to_nc1hwc0(image);
  auto standard = stem.run(dev, input, nets::PoolingStack::kStandard);
  auto accel = stem.run(dev, input, nets::PoolingStack::kAccelerated);

  // Verify the stacks agree and match the reference chain.
  for (std::int64_t i = 0; i < standard.out.size(); ++i) {
    if (!(standard.out.flat(i) == accel.out.flat(i))) {
      std::fprintf(stderr, "stack mismatch at %lld\n",
                   static_cast<long long>(i));
      return 1;
    }
  }
  const TensorF32 want = stem.reference(image);
  const TensorF32 got = nc1hwc0_to_nchw(accel.out, 48);
  for (std::int64_t i = 0; i < want.size(); ++i) {
    const float d = got.flat(i) - want.flat(i);
    if (d > 1e-2f || d < -1e-2f) {
      std::fprintf(stderr, "reference mismatch at %lld (%f vs %f)\n",
                   static_cast<long long>(i), got.flat(i), want.flat(i));
      return 1;
    }
  }

  std::printf("InceptionV3-like stem, 63x63x16 input (verified)\n\n");
  std::printf("%-18s %-22s %12s %12s\n", "layer", "output", "standard",
              "accelerated");
  std::printf("%s\n", std::string(68, '-').c_str());
  std::int64_t pool_saved = 0;
  for (std::size_t i = 0; i < standard.layers.size(); ++i) {
    const auto& a = standard.layers[i];
    const auto& b = accel.layers[i];
    std::printf("%-18s %-22s %12lld %12lld\n", a.name.c_str(),
                a.out_shape.to_string().c_str(),
                static_cast<long long>(a.run.device_cycles),
                static_cast<long long>(b.run.device_cycles));
    pool_saved += a.run.device_cycles - b.run.device_cycles;
  }
  std::printf("%s\n", std::string(68, '-').c_str());
  std::printf("%-18s %-22s %12lld %12lld\n", "total", "",
              static_cast<long long>(standard.total_cycles),
              static_cast<long long>(accel.total_cycles));
  std::printf(
      "\nWhole-network effect: %.1f%% of the stem's cycles disappear just\n"
      "by switching the pooling layers to the Im2col-based schedule\n"
      "(pooling is cheap next to convolution -- the paper's point is that\n"
      "a naive implementation still \"can hinder the overall performance\").\n",
      100.0 * static_cast<double>(pool_saved) /
          static_cast<double>(standard.total_cycles));
  return 0;
}
