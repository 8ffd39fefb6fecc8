// Unit tests for the Memory Transfer Engine: legal datapaths, strided
// copies, converting copies, and cycle charging.
#include "sim/mte.h"

#include <gtest/gtest.h>

#include "arch/cost_model.h"
#include "common/check.h"
#include "sim/scratch.h"

namespace davinci {
namespace {

class MteTest : public ::testing::Test {
 protected:
  MteTest()
      : ub_(BufferKind::kUnified, 64 * 1024),
        l1_(BufferKind::kL1, 64 * 1024),
        l0a_(BufferKind::kL0A, 64 * 1024),
        l0c_(BufferKind::kL0C, 64 * 1024),
        mte_(cost_, &stats_, &profile_) {}

  CostModel cost_;
  CycleStats stats_;
  Profile profile_;
  ScratchBuffer ub_, l1_, l0a_, l0c_;
  Mte mte_;
};

TEST_F(MteTest, GmToUbCopy) {
  std::vector<Float16> host(64);
  for (int i = 0; i < 64; ++i) host[static_cast<size_t>(i)] = Float16(float(i));
  auto dst = ub_.alloc<Float16>(64);
  mte_.copy(dst, gm_span(host.data(), 64), 64);
  EXPECT_EQ(dst.at(0).to_float(), 0.0f);
  EXPECT_EQ(dst.at(63).to_float(), 63.0f);
  EXPECT_EQ(profile_.mte.instrs, 1);
  EXPECT_EQ(stats_.traffic.mte_total(), 128);
  EXPECT_EQ(stats_.mte_cycles, cost_.mte_copy(128, 1));
}

TEST_F(MteTest, AllLegalPaths) {
  std::vector<Float16> host(16, Float16(1.0f));
  auto gm = gm_span(host.data(), 16);
  auto ub = ub_.alloc<Float16>(16);
  auto l1 = l1_.alloc<Float16>(16);
  auto l0a = l0a_.alloc<Float16>(16);
  mte_.copy(l1, gm, 16);     // GM -> L1
  mte_.copy(ub, gm, 16);     // GM -> UB
  mte_.copy(ub, l1, 16);     // L1 -> UB
  mte_.copy(l1, ub, 16);     // UB -> L1
  mte_.copy(l0a, l1, 16);    // L1 -> L0A
  mte_.copy(gm, ub, 16);     // UB -> GM
  mte_.copy(gm, l1, 16);     // L1 -> GM
  EXPECT_EQ(profile_.mte.instrs, 7);
}

TEST_F(MteTest, IllegalPathsRejected) {
  std::vector<Float16> host(16);
  auto gm = gm_span(host.data(), 16);
  auto l0a = l0a_.alloc<Float16>(16);
  auto ub = ub_.alloc<Float16>(16);
  EXPECT_THROW(mte_.copy(l0a, gm, 16), Error);   // GM -> L0A: must go via L1
  EXPECT_THROW(mte_.copy(ub, l0a, 16), Error);   // L0A is Cube-only
  EXPECT_THROW(mte_.copy(gm, gm, 16), Error);    // GM -> GM
}

TEST_F(MteTest, CopyCountBounds) {
  std::vector<Float16> host(8);
  auto ub = ub_.alloc<Float16>(4);
  EXPECT_THROW(mte_.copy(ub, gm_span(host.data(), 8), 8), Error);
}

TEST_F(MteTest, StridedCopy2d) {
  // Gather 3 rows of 4 elements from a stride-8 source.
  std::vector<Float16> host(24);
  for (int i = 0; i < 24; ++i) host[static_cast<size_t>(i)] = Float16(float(i));
  auto dst = ub_.alloc<Float16>(12);
  mte_.copy_2d(dst, 4, gm_span(host.data(), 24), 8, 3, 4);
  EXPECT_EQ(dst.at(0).to_float(), 0.0f);
  EXPECT_EQ(dst.at(4).to_float(), 8.0f);
  EXPECT_EQ(dst.at(11).to_float(), 19.0f);
  EXPECT_EQ(stats_.mte_cycles, cost_.mte_copy(24, 3));
}

TEST_F(MteTest, Copy2dScatter) {
  std::vector<Float16> host(24, Float16(0.0f));
  auto src = ub_.alloc<Float16>(12);
  for (int i = 0; i < 12; ++i) src.at(i) = Float16(float(i + 1));
  mte_.copy_2d(gm_span(host.data(), 24), 8, src, 4, 3, 4);
  EXPECT_EQ(host[0].to_float(), 1.0f);
  EXPECT_EQ(host[8].to_float(), 5.0f);
  EXPECT_EQ(host[4].to_float(), 0.0f);  // gap untouched
}

TEST_F(MteTest, ConvertingCopyL0cToUb) {
  auto src = l0c_.alloc<float>(16);
  for (int i = 0; i < 16; ++i) src.at(i) = 1.5f * static_cast<float>(i);
  auto dst = ub_.alloc<Float16>(16);
  mte_.copy_convert(dst, src, 16);
  EXPECT_EQ(dst.at(2).to_float(), 3.0f);
  EXPECT_EQ(dst.at(15).to_float(), 22.5f);
}

TEST_F(MteTest, ConvertingCopyRejectsWrongBuffers) {
  auto f32ub = l0c_.alloc<float>(4);
  auto f16l1 = l1_.alloc<Float16>(4);
  EXPECT_THROW(mte_.copy_convert(f16l1, f32ub, 4), Error);
}

TEST_F(MteTest, BandwidthTermScalesWithBytes) {
  std::vector<Float16> host(8192);
  auto dst = ub_.alloc<Float16>(8192);
  mte_.copy(dst, gm_span(host.data(), 8192), 8192);
  // 16384 bytes at 128 B/cycle = 128 cycles + startup + 1 burst.
  EXPECT_EQ(stats_.mte_cycles,
            cost_.mte_startup_cycles + 128 + cost_.mte_burst_cycles);
}

}  // namespace
}  // namespace davinci
