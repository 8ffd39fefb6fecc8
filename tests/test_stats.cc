// Tests for the per-core ledger: the counts it keeps (sim/stats.h) and
// the one booking path every unit charges through (sim/ledger.h).
#include "sim/ledger.h"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "sim/ai_core.h"
#include "sim/device.h"

namespace davinci {
namespace {

TEST(CoreCounts, MergeAccumulatesEverything) {
  CoreCounts a, b;
  a.cube_fractal_macs = 3;
  a.traffic.gm_to_ub = 2;
  b.cube_fractal_macs = 30;
  b.traffic.gm_to_ub = 20;
  b.traffic.ub_to_gm = 100;
  a += b;
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

// One vector instruction with `lanes` of 128 lanes active per repeat.
UnitOccupancy vec_instr(std::int64_t lanes, std::int64_t repeat) {
  return {1, lanes * repeat, 128 * repeat, lanes == 128 ? 1 : 0};
}

TEST(Profile, CountVecInstrTracksLanesSaturationAndHistogram) {
  Profile p;
  p.count(TraceKind::kVector, vec_instr(16, 10));  // direct: one C0 group
  p.count(TraceKind::kVector, vec_instr(128, 2));  // im2col: full mask
  EXPECT_EQ(p.vec.instrs, 2);
  EXPECT_EQ(p.vec.slots_used, 16 * 10 + 128 * 2);
  EXPECT_EQ(p.vec.slots_capacity, 128 * 12);
  EXPECT_EQ(p.vec.saturated_instrs, 1);
  EXPECT_EQ(p.vec_lane_hist[0], 1);  // 16 lanes -> first bucket
  EXPECT_EQ(p.vec_lane_hist[7], 1);  // 128 lanes -> saturated bucket
  EXPECT_NEAR(p.vec_lane_utilization(),
              static_cast<double>(16 * 10 + 128 * 2) / (128.0 * 12), 1e-12);
}

TEST(Profile, LaneHistogramBucketsByEighthsOfTheMask) {
  for (std::int64_t lanes = 1; lanes <= 128; ++lanes) {
    for (std::int64_t repeat : {1, 7, 255}) {
      Profile p;
      p.count(TraceKind::kVector, vec_instr(lanes, repeat));
      EXPECT_EQ(p.vec_lane_hist[(lanes - 1) / 16], 1)
          << lanes << " lanes x " << repeat;
    }
  }
  Profile idle;
  idle.count(TraceKind::kVector, vec_instr(0, 1));
  for (std::int64_t n : idle.vec_lane_hist) EXPECT_EQ(n, 0);
}

TEST(Profile, MergeAccumulatesAllUnits) {
  Profile a, b;
  a.count(TraceKind::kVector, vec_instr(128, 1));
  b.count(TraceKind::kVector, vec_instr(16, 1));
  b.count(TraceKind::kIm2col, {2, 255, 510, 0});
  b.count(TraceKind::kMte, {1, 10, 20, 0});
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

std::int64_t busy_over_all_pipes(const PipeScheduler& s) {
  std::int64_t total = 0;
  for (int p = 0; p < PipeScheduler::kNumPipes; ++p) {
    total += s.busy(static_cast<Pipe>(p));
  }
  return total;
}

// Three dependent stages whose flag-waits the timeline absorbs: every
// stage depends on an event its pipe is already past, so no flag cycle
// shows on the timeline, yet each one is charged.
void absorbed_flag_body(AiCore& core) {
  auto a = core.ub().alloc<Float16>(128 * 40);
  core.begin_stage(Pipe::kVector);
  core.vdup_flat(a, Float16(), 128 * 40);
  const PipeScheduler::Event done = core.end_stage();
  core.begin_stage(Pipe::kMteIn);
  core.vdup_flat(a, Float16(), 128);  // a short stage on another pipe
  const PipeScheduler::Event early = core.end_stage();
  ASSERT_LT(early + core.cost().pipe_barrier_cycles, done);
  for (int i = 0; i < 3; ++i) {
    core.begin_stage(Pipe::kVector, early);  // the Vector pipe is past it
    core.vdup_flat(a, Float16(), 128);
    core.end_stage();
  }
}

TEST(Ledger, SerialCountsFlagWaitsTheTimelineAbsorbs) {
  AiCore core(0, ArchConfig::ascend910(), CostModel::calibrated());
  absorbed_flag_body(core);
  const PipeScheduler& s = core.sched();
  for (int p = 0; p < PipeScheduler::kNumPipes; ++p) {
    EXPECT_EQ(s.flag(static_cast<Pipe>(p)), 0) << "pipe " << p;
  }
  EXPECT_EQ(s.serial(),
            busy_over_all_pipes(s) + 3 * core.cost().pipe_barrier_cycles);
  EXPECT_LE(s.makespan(), s.serial());

  Device dev;
  const Device::RunResult r =
      dev.run(1, [](AiCore& c, std::int64_t) { absorbed_flag_body(c); });
  // The device adds its launch overhead on the Sync pipe.
  EXPECT_EQ(r.device_cycles_serial,
            s.serial() + dev.cost().core_launch_cycles);
  EXPECT_EQ(r.device_cycles_serial, dev.core(0).sched().serial());
}

// One charge site of a unit, issued on a fresh core, with the pipe it
// runs on outside a stage and the trace row it records.
struct Site {
  const char* name;
  Pipe pipe;
  TraceKind kind;
  std::function<void(AiCore&)> issue;
};

std::vector<Site> charge_sites() {
  static std::vector<Float16> gm(4096);
  Im2colArgs args;
  args.window = Window2d::pool(3, 2);
  args.ih = 9;
  args.iw = 9;
  return {
      {"vector", Pipe::kVector, TraceKind::kVector,
       [](AiCore& c) {
         c.vec().dup(c.ub().alloc<Float16>(256), Float16(),
                     VecConfig::flat(2));
       }},
      {"im2col_mode1", Pipe::kScu, TraceKind::kIm2col,
       [args](AiCore& c) {
         c.scu().im2col_load(c.ub().alloc<Float16>(args.output_elems()),
                             c.l1().alloc<Float16>(args.input_elems()), args);
       }},
      {"im2col_mode0", Pipe::kScu, TraceKind::kIm2col,
       [args](AiCore& c) {
         c.scu().im2col_load_mode0(
             c.ub().alloc<Float16>(args.output_elems()),
             c.l1().alloc<Float16>(args.input_elems()), args);
       }},
      {"col2im", Pipe::kScu, TraceKind::kCol2im,
       [args](AiCore& c) {
         c.scu().col2im(c.ub().alloc<Float16>(args.input_elems()),
                        c.ub().alloc<Float16>(args.output_elems()), args);
       }},
      {"cube", Pipe::kCube, TraceKind::kCube,
       [](AiCore& c) {
         c.cube().mmad(c.l0c().alloc<float>(256), c.l0a().alloc<Float16>(256),
                       c.l0b().alloc<Float16>(256), 1, 1, 1, false);
       }},
      {"mte_gm_to_ub", Pipe::kMteIn, TraceKind::kMte,
       [](AiCore& c) {
         c.mte().copy(c.ub().alloc<Float16>(4096), gm_span(gm.data(), 4096),
                      4096);
       }},
      {"mte_ub_to_gm", Pipe::kMteOut, TraceKind::kMte,
       [](AiCore& c) {
         c.mte().copy(gm_span(gm.data(), 4096), c.ub().alloc<Float16>(4096),
                      4096);
       }},
  };
}

// Issues `site` on a traced core that has already spent some cycles and
// checks the booking: the cycles land on `pipe` only, and one trace event
// records exactly that interval.
void expect_booked_on(const Site& site, Pipe pipe, bool in_stage) {
  SCOPED_TRACE(std::string(site.name) + " on " + to_string(pipe));
  AiCore core(0, ArchConfig::ascend910(), CostModel::calibrated());
  core.pipe_barrier();  // every pipe is busy up to the barrier's end
  core.trace().enable();
  const PipeScheduler& s = core.sched();
  std::int64_t before[PipeScheduler::kNumPipes];
  for (int p = 0; p < PipeScheduler::kNumPipes; ++p) {
    before[p] = s.busy(static_cast<Pipe>(p));
  }
  const std::int64_t start = in_stage ? s.ready(pipe) : s.makespan();
  if (in_stage) core.begin_stage(pipe);
  site.issue(core);
  if (in_stage) core.end_stage();

  const std::int64_t cycles = s.busy(pipe) - before[static_cast<int>(pipe)];
  EXPECT_GT(cycles, 0);
  for (int p = 0; p < PipeScheduler::kNumPipes; ++p) {
    if (static_cast<Pipe>(p) == pipe) continue;
    EXPECT_EQ(s.busy(static_cast<Pipe>(p)), before[p]) << "pipe " << p;
  }
  EXPECT_EQ(s.ready(pipe), start + cycles);
  ASSERT_EQ(core.trace().events().size(), 1u);
  const TraceEvent& e = core.trace().events()[0];
  EXPECT_EQ(e.kind, site.kind);
  EXPECT_EQ(e.start, start);
  EXPECT_EQ(e.cycles, cycles);
}

TEST(Ledger, EveryChargeSiteBooksItsNaturalPipeAndOneEvent) {
  for (const Site& site : charge_sites()) {
    expect_booked_on(site, site.pipe, /*in_stage=*/false);
  }
}

TEST(Ledger, EveryChargeSiteInsideAStageBooksTheStagesPipe) {
  for (const Site& site : charge_sites()) {
    const Pipe other =
        site.pipe == Pipe::kVector ? Pipe::kMteOut : Pipe::kVector;
    expect_booked_on(site, other, /*in_stage=*/true);
  }
}

}  // namespace
}  // namespace davinci
