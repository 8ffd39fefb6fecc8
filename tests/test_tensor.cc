// Unit tests for Shape, Tensor and Window2d geometry.
#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "tensor/pool_geometry.h"
#include "tensor/shape.h"

namespace davinci {
namespace {

TEST(Shape, BasicProperties) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.num_elements(), 24);
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_EQ(s[2], 4);
  EXPECT_EQ(s.stride(0), 12);
  EXPECT_EQ(s.stride(1), 4);
  EXPECT_EQ(s.stride(2), 1);
  EXPECT_EQ(s.to_string(), "(2, 3, 4)");
}

TEST(Shape, Equality) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
  EXPECT_NE(Shape({2, 3}), Shape({2, 3, 1}));
}

TEST(Shape, EmptyAndZeroDims) {
  Shape empty;
  EXPECT_EQ(empty.rank(), 0);
  EXPECT_EQ(empty.num_elements(), 1);
  Shape zero{0, 5};
  EXPECT_EQ(zero.num_elements(), 0);
}

TEST(Shape, OutOfRangeDimThrows) {
  Shape s{2, 3};
  EXPECT_THROW(s.dim(2), Error);
  EXPECT_THROW(s.dim(-1), Error);
}

TEST(Shape, UnrepresentableShapesThrowWhereBuilt) {
  // 10^24 * 16 elements: the element count would overflow int64.
  EXPECT_THROW(Shape({1000000, 1000000, 1000000, 1000000, 16}), Error);
  EXPECT_THROW(TensorF16(Shape{1000000, 1000000, 1000000, 1000000, 16}),
               Error);
  // Representable in elements, but not in bytes at 8 bytes per element.
  EXPECT_THROW(Shape({Shape::kMaxElements, 2}), Error);
  EXPECT_NO_THROW(Shape({Shape::kMaxElements, 1}));
  // A zero dimension empties the shape but not its strides.
  EXPECT_THROW(Shape({0, 1000000000000, 1000000000000}), Error);

  Shape s{1000000, 1000000, 16};
  EXPECT_THROW(s.set_dim(1, 1000000000000), Error);
  EXPECT_EQ(s, Shape({1000000, 1000000, 16}));  // unchanged on failure
  s.set_dim(1, 2);
  EXPECT_EQ(s.num_elements(), 1000000 * 2 * 16);
}

TEST(Tensor, IndexingRoundTrip) {
  TensorF32 t(Shape{2, 3, 4});
  float v = 0;
  for (std::int64_t i = 0; i < 2; ++i) {
    for (std::int64_t j = 0; j < 3; ++j) {
      for (std::int64_t k = 0; k < 4; ++k) {
        t.at(i, j, k) = v++;
      }
    }
  }
  EXPECT_EQ(t.at(0, 0, 0), 0.0f);
  EXPECT_EQ(t.at(1, 2, 3), 23.0f);
  EXPECT_EQ(t.flat(23), 23.0f);
  EXPECT_EQ(t.offset(1, 0, 2), 14);
}

TEST(Tensor, BoundsChecked) {
  TensorF32 t(Shape{2, 2});
  EXPECT_THROW(t.at(2, 0), Error);
  EXPECT_THROW(t.at(0, -1), Error);
  EXPECT_THROW(t.flat(4), Error);
}

TEST(Tensor, FillAndRandomDeterminism) {
  TensorF16 a(Shape{64});
  TensorF16 b(Shape{64});
  a.fill_random(7);
  b.fill_random(7);
  for (std::int64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(a.flat(i).bits(), b.flat(i).bits());
  }
  TensorF16 c(Shape{64});
  c.fill_random(8);
  int diff = 0;
  for (std::int64_t i = 0; i < 64; ++i) {
    diff += a.flat(i).bits() != c.flat(i).bits();
  }
  EXPECT_GT(diff, 0);
}

TEST(Tensor, RandomIntsAreIntegral) {
  TensorF16 t(Shape{256});
  t.fill_random_ints(3, -8, 8);
  for (std::int64_t i = 0; i < t.size(); ++i) {
    const float v = t.flat(i).to_float();
    EXPECT_EQ(v, static_cast<float>(static_cast<int>(v)));
    EXPECT_GE(v, -8.0f);
    EXPECT_LE(v, 8.0f);
  }
}

TEST(Window2d, Equation1) {
  // The paper's Equation (1) on the Figure 5 example:
  // (Ih, Iw) = (8, 8), K = (2, 2), S = (2, 2) -> (Oh, Ow) = (4, 4).
  Window2d w = Window2d::pool(2, 2);
  EXPECT_EQ(w.out_h(8), 4);
  EXPECT_EQ(w.out_w(8), 4);
}

TEST(Window2d, Equation1WithPadding) {
  Window2d w;
  w.kh = 3;
  w.kw = 3;
  w.sh = 2;
  w.sw = 2;
  w.pt = 1;
  w.pb = 1;
  w.pl = 1;
  w.pr = 1;
  // (7 + 2 - 3) / 2 + 1 = 4.
  EXPECT_EQ(w.out_h(7), 4);
  EXPECT_EQ(w.out_w(7), 4);
}

TEST(Window2d, InceptionV3Shapes) {
  // The Figure 7 configurations: K(3,3), S(2,2), no padding.
  Window2d w = Window2d::pool(3, 2);
  EXPECT_EQ(w.out_h(147), 73);
  EXPECT_EQ(w.out_h(71), 35);
  EXPECT_EQ(w.out_h(35), 17);
}

TEST(Window2d, OverlapDetection) {
  EXPECT_TRUE(Window2d::pool(3, 2).overlapping());
  EXPECT_TRUE(Window2d::pool(3, 1).overlapping());
  EXPECT_FALSE(Window2d::pool(3, 3).overlapping());
  EXPECT_FALSE(Window2d::pool(2, 2).overlapping());
}

TEST(Window2d, InvalidThrows) {
  Window2d w = Window2d::pool(3, 2);
  EXPECT_THROW(w.out_h(2), Error);  // input smaller than kernel
  Window2d bad;
  bad.kh = 0;
  EXPECT_THROW(bad.validate(), Error);
  Window2d neg = Window2d::pool(2, 2);
  neg.pt = -1;
  EXPECT_THROW(neg.validate(), Error);
}

}  // namespace
}  // namespace davinci
