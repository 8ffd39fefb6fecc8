// Unit tests for the AI Core composition and the 32-core device model.
#include "sim/device.h"

#include <atomic>
#include <gtest/gtest.h>

#include "common/check.h"
#include "sim/ai_core.h"

namespace davinci {
namespace {

TEST(AiCore, FlatHelpersSplitLargeTiles) {
  AiCore core(0, ArchConfig::ascend910(), CostModel::calibrated());
  // 70000 elements: 546 full repeats (3 instructions: 255+255+36) + tail 112.
  auto a = core.ub().alloc<Float16>(70000);
  core.vdup_flat(a, Float16(3.0f), 70000);
  EXPECT_EQ(a.at(0).to_float(), 3.0f);
  EXPECT_EQ(a.at(69999).to_float(), 3.0f);
  EXPECT_EQ(core.profile().vec.instrs, 4);
  EXPECT_EQ(core.profile().vec.slots_capacity,
            128 * (255 + 255 + 36 + 1));  // 128 lanes per repeat
  // 3 reissues charged to the scalar unit, which rides the Vector pipe
  // beside the four issues.
  const CostModel& cost = core.cost();
  EXPECT_EQ(core.sched().busy(Pipe::kVector) - 2 * cost.vector_instr(255) -
                cost.vector_instr(36) - cost.vector_instr(1),
            3 * cost.scalar_loop_cycles);
}

TEST(AiCore, FlatBinaryHandlesExactMultiples) {
  AiCore core(0, ArchConfig::ascend910(), CostModel::calibrated());
  auto a = core.ub().alloc<Float16>(256);
  auto b = core.ub().alloc<Float16>(256);
  auto d = core.ub().alloc<Float16>(256);
  core.vdup_flat(a, Float16(2.0f), 256);
  core.vdup_flat(b, Float16(5.0f), 256);
  core.vbin_flat(VecOp::kMul, d, a, b, 256);
  EXPECT_EQ(d.at(255).to_float(), 10.0f);
  // One instruction with repeat 2, no tail.
  EXPECT_EQ(core.profile().vec.instrs, 3);
}

TEST(AiCore, ResetScratchFreesAllBuffers) {
  AiCore core(0, ArchConfig::ascend910(), CostModel::calibrated());
  core.ub().alloc<Float16>(1000);
  core.l1().alloc<Float16>(1000);
  core.reset_scratch();
  EXPECT_EQ(core.ub().bytes_used(), 0);
  EXPECT_EQ(core.l1().bytes_used(), 0);
}

TEST(AiCore, BufferCapacitiesMatchAscend910) {
  AiCore core(0, ArchConfig::ascend910(), CostModel::calibrated());
  EXPECT_EQ(core.ub().capacity_bytes(), 256 * 1024);
  EXPECT_EQ(core.l1().capacity_bytes(), 1024 * 1024);
  EXPECT_EQ(core.l0a().capacity_bytes(), 64 * 1024);
  EXPECT_EQ(core.l0b().capacity_bytes(), 64 * 1024);
  EXPECT_EQ(core.l0c().capacity_bytes(), 256 * 1024);
}

TEST(Device, Has32Cores) {
  Device dev;
  EXPECT_EQ(dev.num_cores(), 32);
}

TEST(Device, DistributesBlocksRoundRobin) {
  Device dev;
  std::vector<std::atomic<int>> hits(64);
  auto result = dev.run(64, [&](AiCore& core, std::int64_t b) {
    EXPECT_EQ(b % 32, core.id());
    hits[static_cast<std::size_t>(b)]++;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(result.cores_used, 32);
}

TEST(Device, FewerBlocksThanCores) {
  Device dev;
  auto result = dev.run(5, [](AiCore&, std::int64_t) {});
  EXPECT_EQ(result.cores_used, 5);
  EXPECT_EQ(result.attribution.cores.size(), 5u);
}

TEST(Device, DeviceCyclesIsMaxOverCores) {
  Device dev;
  // Block 0 does much more vector work than the others.
  auto result = dev.run(4, [](AiCore& core, std::int64_t b) {
    auto a = core.ub().alloc<Float16>(128);
    const int reps = b == 0 ? 50 : 1;
    for (int i = 0; i < reps; ++i) core.vdup_flat(a, Float16(), 128);
  });
  const std::vector<CoreAttribution>& cores = result.attribution.cores;
  EXPECT_EQ(result.device_cycles, cores[0].makespan);
  EXPECT_GT(cores[0].makespan, cores[1].makespan);
  // Unstaged code runs serially on every core.
  EXPECT_EQ(result.device_cycles_serial, cores[0].makespan);
}

TEST(Device, LaunchOverheadChargedPerCore) {
  Device dev;
  auto result = dev.run(3, [](AiCore&, std::int64_t) {});
  for (const CoreAttribution& c : result.attribution.cores) {
    EXPECT_EQ(c.makespan, dev.cost().core_launch_cycles);
  }
}

TEST(Device, SerialAndParallelAgree) {
  Device dev;
  std::vector<float> out_par(64), out_ser(64);
  auto body = [](std::vector<float>& out) {
    return [&out](AiCore& core, std::int64_t b) {
      auto a = core.ub().alloc<Float16>(128);
      core.vdup_flat(a, Float16(static_cast<float>(b)), 128);
      out[static_cast<std::size_t>(b)] = a.at(0).to_float();
    };
  };
  auto r1 = dev.run(64, body(out_par));
  dev.set_parallel(false);
  auto r2 = dev.run(64, body(out_ser));
  EXPECT_EQ(out_par, out_ser);
  EXPECT_EQ(r1.device_cycles, r2.device_cycles);
}

TEST(Device, ExceptionsPropagateFromWorkers) {
  Device dev;
  EXPECT_THROW(dev.run(40,
                       [](AiCore& core, std::int64_t b) {
                         if (b == 17) {
                           // Overflow the UB deliberately.
                           core.ub().alloc<Float16>(1 << 20);
                         }
                       }),
               Error);
}

TEST(Device, SerialFailureReportsCoreAndBlock) {
  Device dev;
  dev.set_parallel(false);
  try {
    dev.run(40, [](AiCore& core, std::int64_t b) {
      if (b == 17) core.ub().alloc<Float16>(1 << 20);
    });
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("core 17 at block 17"), std::string::npos) << msg;
  }
}

TEST(Device, StatsResetBetweenRuns) {
  Device dev;
  auto r1 = dev.run(1, [](AiCore& core, std::int64_t) {
    auto a = core.ub().alloc<Float16>(128);
    core.vdup_flat(a, Float16(), 128);
  });
  auto r2 = dev.run(1, [](AiCore&, std::int64_t) {});
  EXPECT_LT(r2.device_cycles, r1.device_cycles);
}

TEST(AiCore, PipeBarrierCharges) {
  AiCore core(0, ArchConfig::ascend910(), CostModel::calibrated());
  core.pipe_barrier();
  core.pipe_barrier();
  EXPECT_EQ(core.sched().busy(Pipe::kSync),
            2 * core.cost().pipe_barrier_cycles);
}

}  // namespace
}  // namespace davinci
