// Tests for the cycle-statistics ledger.
#include "sim/stats.h"

#include <gtest/gtest.h>

namespace davinci {
namespace {

TEST(CycleStats, TotalIsSumOfPipes) {
  CycleStats s;
  s.vector_cycles = 10;
  s.scalar_cycles = 5;
  s.mte_cycles = 7;
  s.scu_cycles = 3;
  s.cube_cycles = 2;
  s.barrier_cycles = 1;
  s.launch_cycles = 4;
  EXPECT_EQ(s.total_cycles(), 32);
}

TEST(CycleStats, MergeAccumulatesEverything) {
  CycleStats a, b;
  a.vector_cycles = 1;
  a.cube_fractal_macs = 3;
  a.traffic.gm_to_ub = 2;
  b.vector_cycles = 10;
  b.launch_cycles = 5;
  b.cube_fractal_macs = 30;
  b.traffic.gm_to_ub = 20;
  b.traffic.ub_to_gm = 100;
  a += b;
  EXPECT_EQ(a.vector_cycles, 11);
  EXPECT_EQ(a.launch_cycles, 5);
  EXPECT_EQ(a.cube_fractal_macs, 33);
  EXPECT_EQ(a.traffic.gm_to_ub, 22);
  EXPECT_EQ(a.traffic.mte_total(), 122);
}

TEST(UnitOccupancy, RatiosDefinedAndMergeable) {
  UnitOccupancy u;
  EXPECT_EQ(u.occupancy(), 0.0);  // idle unit, no division by zero
  EXPECT_EQ(u.saturation(), 0.0);
  u.instrs = 4;
  u.slots_used = 64;
  u.slots_capacity = 128;
  u.saturated_instrs = 1;
  EXPECT_NEAR(u.occupancy(), 0.5, 1e-12);
  EXPECT_NEAR(u.saturation(), 0.25, 1e-12);
  UnitOccupancy v = u;
  v += u;
  EXPECT_EQ(v.instrs, 8);
  EXPECT_EQ(v.slots_used, 128);
  EXPECT_NEAR(v.occupancy(), 0.5, 1e-12);  // ratios survive merging
}

TEST(Profile, CountVecInstrTracksLanesSaturationAndHistogram) {
  Profile p;
  p.count_vec_instr(16, 128, 10);  // direct pooling: one C0 group
  p.count_vec_instr(128, 128, 2);  // im2col pooling: full mask
  EXPECT_EQ(p.vec.instrs, 2);
  EXPECT_EQ(p.vec.slots_used, 16 * 10 + 128 * 2);
  EXPECT_EQ(p.vec.slots_capacity, 128 * 12);
  EXPECT_EQ(p.vec.saturated_instrs, 1);
  EXPECT_EQ(p.vec_lane_hist[0], 1);  // 16 lanes -> first bucket
  EXPECT_EQ(p.vec_lane_hist[7], 1);  // 128 lanes -> saturated bucket
  EXPECT_NEAR(p.vec_lane_utilization(),
              static_cast<double>(16 * 10 + 128 * 2) / (128.0 * 12), 1e-12);
}

TEST(Profile, MergeAccumulatesAllUnits) {
  Profile a, b;
  a.count_vec_instr(128, 128, 1);
  b.count_vec_instr(16, 128, 1);
  b.im2col.instrs = 2;
  b.im2col.slots_used = 255;
  b.im2col.slots_capacity = 510;
  b.mte.instrs = 1;
  b.mte.slots_used = 10;
  b.mte.slots_capacity = 20;
  a += b;
  EXPECT_EQ(a.vec.instrs, 2);
  EXPECT_EQ(a.vec_lane_hist[0] + a.vec_lane_hist[7], 2);
  EXPECT_NEAR(a.im2col.occupancy(), 0.5, 1e-12);
  EXPECT_NEAR(a.mte.occupancy(), 0.5, 1e-12);
  const std::string text = a.summary();
  EXPECT_NE(text.find("vec="), std::string::npos);
  EXPECT_NE(text.find("im2col=50%"), std::string::npos);
  EXPECT_NE(text.find("mte=50%"), std::string::npos);
}

TEST(CycleStats, SummaryMentionsKeyFields) {
  CycleStats s;
  s.vector_cycles = 42;
  const std::string text = s.summary();
  EXPECT_NE(text.find("cycles=42"), std::string::npos);
  EXPECT_NE(text.find("vec=42"), std::string::npos);
}

}  // namespace
}  // namespace davinci
