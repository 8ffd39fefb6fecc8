// Unit tests for the kernel-lowering helpers in kernels/detail.h: the
// strided 16-lane copy the baselines use and the saturated row-strided
// forms the Sw == 1 fast paths use, all split by one row/repeat splitter.
#include "kernels/detail.h"

#include <gtest/gtest.h>

#include "sim/ai_core.h"

namespace davinci::kernels {
namespace {

class HelperTest : public ::testing::Test {
 protected:
  HelperTest() : core_(0, ArchConfig::ascend910(), CostModel::calibrated()) {}

  Span<Float16> alloc_iota(std::int64_t n, float base = 0.0f) {
    auto s = core_.ub().alloc<Float16>(n);
    for (std::int64_t i = 0; i < n; ++i) {
      s.at(i) = Float16(base + static_cast<float>(i % 1024));
    }
    return s;
  }

  AiCore core_;
};

TEST_F(HelperTest, Strided16CopySplitsAtMaxRepeat) {
  // 300 groups > max_repeat 255 -> two instructions + one scalar reissue.
  auto src = core_.ub().alloc<Float16>(300 * 16);
  auto dst = core_.ub().alloc<Float16>(300 * 16);
  core_.vdup_flat(src, Float16(2.0f), 300 * 16);
  core_.vdup_flat(dst, Float16(1.0f), 300 * 16);
  const auto before = core_.profile().vec.instrs;
  const auto scalar_before = core_.stats().scalar_cycles;
  detail::strided16_copy(core_, dst, 16, src, 16, 300);
  EXPECT_EQ(core_.profile().vec.instrs - before, 2);
  EXPECT_EQ(core_.stats().scalar_cycles - scalar_before,
            CostModel::calibrated().scalar_loop_cycles);
  EXPECT_EQ(dst.at(299 * 16).to_float(), 2.0f);
}

TEST_F(HelperTest, Strided16CopyScattersIntoPlanes) {
  auto src = alloc_iota(6 * 48);
  auto dst = core_.ub().alloc<Float16>(6 * 16);
  detail::strided16_copy(core_, dst, 16, src, 48, 6);
  for (std::int64_t g = 0; g < 6; ++g) {
    EXPECT_EQ(dst.at(g * 16).to_float(), static_cast<float>(g * 48));
  }
}

TEST_F(HelperTest, RowStridedBinaryCoversWholeRows) {
  // 5 rows of 200 elements, source rows 272 apart: two column chunks
  // (128 + 72 lanes), each one instruction with repeat 5.
  const std::int64_t rows = 5, row = 200, src_stride = 272;
  auto src = alloc_iota(rows * src_stride);
  auto dst = core_.ub().alloc<Float16>(rows * row);
  core_.vdup_flat(dst, Float16(-1000.0f), rows * row);
  const auto before = core_.profile().vec.instrs;
  detail::row_strided_binary(core_, VecOp::kMax, dst, row, dst, row, src,
                             src_stride, rows, row);
  EXPECT_EQ(core_.profile().vec.instrs - before, 2);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t i = 0; i < row; ++i) {
      EXPECT_EQ(dst.at(r * row + i).to_float(),
                static_cast<float>((r * src_stride + i) % 1024))
          << r << "," << i;
    }
  }
}

TEST_F(HelperTest, RowStridedBinaryAccumulatesInPlace) {
  // dst == src0 with the same strides: reduction across repeated calls.
  const std::int64_t rows = 3, row = 160;
  auto a = core_.ub().alloc<Float16>(rows * row);
  auto b = core_.ub().alloc<Float16>(rows * row);
  core_.vdup_flat(a, Float16(1.0f), rows * row);
  core_.vdup_flat(b, Float16(5.0f), rows * row);
  detail::row_strided_binary(core_, VecOp::kMax, a, row, a, row, b, row,
                             rows, row);
  EXPECT_EQ(a.at(rows * row - 1).to_float(), 5.0f);
}

TEST_F(HelperTest, RowStridedCopyMatchesManual) {
  const std::int64_t rows = 4, row = 96, src_stride = 130;
  auto src = alloc_iota(rows * src_stride, 1.0f);
  auto dst = core_.ub().alloc<Float16>(rows * row);
  detail::row_strided_copy(core_, dst, row, src, src_stride, rows, row);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t i = 0; i < row; ++i) {
      EXPECT_EQ(dst.at(r * row + i).bits(), src.at(r * src_stride + i).bits());
    }
  }
}

TEST_F(HelperTest, RowStridedSplitsRowsAtMaxRepeat) {
  ArchConfig arch = ArchConfig::ascend910();
  arch.max_repeat = 4;
  AiCore core(0, arch, CostModel::calibrated());
  const std::int64_t rows = 10, row = 64;
  auto src = core.ub().alloc<Float16>(rows * row);
  auto dst = core.ub().alloc<Float16>(rows * row);
  core.vdup_flat(src, Float16(3.0f), rows * row);
  core.vdup_flat(dst, Float16(), rows * row);
  const auto before = core.profile().vec.instrs;
  detail::row_strided_binary(core, VecOp::kAdd, dst, row, dst, row, src, row,
                             rows, row);
  // One column chunk (64 lanes), 10 rows at max repeat 4 -> 3 instructions.
  EXPECT_EQ(core.profile().vec.instrs - before, 3);
  EXPECT_EQ(dst.at(9 * row).to_float(), 3.0f);
}

TEST_F(HelperTest, ReducePlanesFoldsEachPlaneOnce) {
  const std::int64_t plane = 256, planes = 4;
  auto cols = core_.ub().alloc<Float16>(planes * plane);
  for (std::int64_t k = 0; k < planes; ++k) {
    for (std::int64_t i = 0; i < plane; ++i) {
      cols.at(k * plane + i) = Float16(static_cast<float>(k == 2 ? 9 : k));
    }
  }
  auto acc = core_.ub().alloc<Float16>(plane);
  core_.vdup_flat(acc, Float16::lowest(), plane);
  detail::reduce_planes(core_, VecOp::kMax, acc, cols, planes, plane);
  for (std::int64_t i = 0; i < plane; ++i) {
    EXPECT_EQ(acc.at(i).to_float(), 9.0f);
  }
}

}  // namespace
}  // namespace davinci::kernels
