// Cycle attribution and metrics-JSON invariants (docs/OBSERVABILITY.md):
// per-pipe buckets must sum exactly to the attribution horizon for every
// kernel, the critical path must be deterministic and account for the
// whole makespan, the bottleneck must name the critical core's busiest
// execution unit, and the serialized metrics must round-trip through the
// JSON parser with the invariants intact.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/json.h"
#include "kernels/pooling.h"
#include "ref/pooling_ref.h"
#include "sim/metrics.h"
#include "sim/metrics_registry.h"
#include "tensor/fractal.h"

namespace davinci {
namespace {

using kernels::PoolInputs;
using kernels::PoolOp;
using kernels::PoolOpKind;

TensorF16 inception_input() {
  // InceptionV3 (35, 35, 288) -- the paper's largest Figure 7a shape.
  TensorF16 in(Shape{1, c1_of(288), 35, 35, kC0});
  in.fill_random_ints(1);
  return in;
}

void expect_same_path(const std::vector<CritSegment>& got,
                      const std::vector<CritSegment>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].pipe, want[i].pipe) << "segment " << i;
    EXPECT_EQ(got[i].kind, want[i].kind) << "segment " << i;
    EXPECT_EQ(got[i].start, want[i].start) << "segment " << i;
    EXPECT_EQ(got[i].end, want[i].end) << "segment " << i;
  }
}

// Every pipe of every used core decomposes into busy/wait/flag/idle
// buckets summing exactly to the device horizon; the critical core's
// chain covers the horizon end to end.
void check_attribution(const DeviceAttribution& a) {
  ASSERT_FALSE(a.cores.empty());
  for (const CoreAttribution& ca : a.cores) {
    EXPECT_LE(ca.makespan, a.horizon);
    for (int p = 0; p < PipeScheduler::kNumPipes; ++p) {
      const PipeBuckets& b = ca.pipes[p];
      EXPECT_GE(b.busy, 0);
      EXPECT_GE(b.wait, 0);
      EXPECT_GE(b.flag, 0);
      EXPECT_GE(b.idle, 0);
      EXPECT_EQ(b.total(), a.horizon)
          << "core " << ca.core << " pipe "
          << to_string(static_cast<Pipe>(p));
    }
  }
  ASSERT_GE(a.critical_core, 0);
  ASSERT_LT(static_cast<std::size_t>(a.critical_core), a.cores.size());
  EXPECT_EQ(a.cores[a.critical_core].makespan, a.horizon);
  if (!a.path_truncated) {
    std::int64_t covered = 0, busy = 0;
    std::int64_t prev_end = 0;
    for (const CritSegment& s : a.critical_path()) {
      EXPECT_EQ(s.start, prev_end) << "chain must be gapless";
      EXPECT_GT(s.length(), 0);
      covered += s.length();
      if (s.kind == CritSegment::Kind::kBusy) busy += s.length();
      prev_end = s.end;
    }
    EXPECT_EQ(covered, a.horizon);
    EXPECT_GT(busy, 0) << "the chain names the intervals that bound it";
  }
}

TEST(Attribution, BucketsSumToMakespanForwardKernels) {
  for (bool db : {true, false}) {
    Device dev;
    dev.set_double_buffer(db);
    const TensorF16 in = inception_input();
    const Window2d w = Window2d::pool(3, 2);
    for (akg::PoolImpl impl : {akg::PoolImpl::kDirect, akg::PoolImpl::kIm2col,
                               akg::PoolImpl::kExpansion}) {
      auto r = kernels::run_pool(
          dev, PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w, .fwd = impl},
          PoolInputs{.in = &in});
      SCOPED_TRACE(std::string(akg::to_string(impl)) +
                   (db ? " db" : " no-db"));
      check_attribution(r.run.attribution);
    }
    auto avg = kernels::run_pool(
        dev,
        PoolOp{.kind = PoolOpKind::kAvgFwd, .window = w,
               .fwd = akg::PoolImpl::kIm2col},
        PoolInputs{.in = &in});
    check_attribution(avg.run.attribution);
  }
}

TEST(Attribution, BucketsSumToMakespanBackwardKernels) {
  for (bool db : {true, false}) {
    Device dev;
    dev.set_double_buffer(db);
    const TensorF16 in = inception_input();
    const Window2d w = Window2d::pool(3, 2);
    const TensorF16 mask = ref::maxpool_argmax_mask(in, w);
    TensorF16 grad(Shape{1, c1_of(288), w.out_h(35), w.out_w(35), kC0});
    grad.fill_random_ints(7, 0, 5);
    for (kernels::MergeImpl merge :
         {kernels::MergeImpl::kVadd, kernels::MergeImpl::kCol2im}) {
      auto r = kernels::run_pool(
          dev, PoolOp{.kind = PoolOpKind::kMaxBwd, .window = w, .merge = merge},
          PoolInputs{.mask = &mask, .grad = &grad, .ih = 35, .iw = 35});
      SCOPED_TRACE(db ? "db" : "no-db");
      check_attribution(r.run.attribution);
    }
  }
}

TEST(Attribution, HorizonMatchesDeviceCyclesUnderOverlap) {
  Device dev;
  const TensorF16 in = inception_input();
  auto r = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = Window2d::pool(3, 2),
             .fwd = akg::PoolImpl::kIm2col},
      PoolInputs{.in = &in});
  EXPECT_EQ(r.run.attribution.horizon, r.run.device_cycles);
}

TEST(Attribution, CriticalPathIsDeterministic) {
  auto run_once = [] {
    Device dev;
    const TensorF16 in = inception_input();
    auto r = kernels::run_pool(
        dev,
        PoolOp{.kind = PoolOpKind::kMaxFwd, .window = Window2d::pool(3, 2),
               .fwd = akg::PoolImpl::kIm2col},
        PoolInputs{.in = &in});
    return r.run.attribution;
  };
  const DeviceAttribution a = run_once();
  const DeviceAttribution b = run_once();
  EXPECT_EQ(a.horizon, b.horizon);
  EXPECT_EQ(a.critical_core, b.critical_core);
  ASSERT_FALSE(a.critical_path().empty());
  expect_same_path(a.critical_path(), b.critical_path());
}

// A RunResult answers for its own launch: its path, read after the same
// Device ran a different launch, and a metrics entry added that late,
// match those of the launch run on a fresh Device.
TEST(Attribution, RunResultOwnsItsPath) {
  const TensorF16 in = inception_input();
  const PoolOp a_op{.kind = PoolOpKind::kMaxFwd,
                    .window = Window2d::pool(3, 2),
                    .fwd = akg::PoolImpl::kIm2col};
  const PoolOp b_op{.kind = PoolOpKind::kMaxFwd,
                    .window = Window2d::pool(2, 2),
                    .fwd = akg::PoolImpl::kDirect};
  Device fresh;
  const Device::RunResult want =
      kernels::run_pool(fresh, a_op, PoolInputs{.in = &in}).run;

  Device dev;
  const Device::RunResult a =
      kernels::run_pool(dev, a_op, PoolInputs{.in = &in}).run;
  const Device::RunResult b =
      kernels::run_pool(dev, b_op, PoolInputs{.in = &in}).run;
  ASSERT_NE(b.device_cycles, a.device_cycles);
  ASSERT_FALSE(a.attribution.path_truncated);
  ASSERT_FALSE(want.attribution.critical_path().empty());
  expect_same_path(a.attribution.critical_path(),
                   want.attribution.critical_path());

  const auto summary = [&](const Device::RunResult& run) {
    MetricsRegistry reg;
    reg.add("a", run);
    const json::Value doc = json::parse(reg.to_json());
    const json::Value& attr =
        doc.at("entries").as_array().at(0).at("attribution");
    const json::Value& sum = attr.at("critical_path_summary");
    return std::vector<std::int64_t>{
        sum.at("segments").as_int(), sum.at("emitted").as_int(),
        sum.at("busy_cycles").as_int(), sum.at("stall_cycles").as_int(),
        static_cast<std::int64_t>(attr.at("critical_path").as_array().size())};
  };
  EXPECT_EQ(summary(a), summary(want));
}

// The verdict reads the critical core's busy buckets: the busiest
// execution unit, never Sync, ties to the lower pipe.
TEST(Bottleneck, SyncIsExcludedEvenWhenBusiest) {
  PipeScheduler s;
  s.barrier(100);
  s.issue(Pipe::kVector, 5);
  EXPECT_STREQ(attribute_cores({&s}).bottleneck(), "Vector");
}

TEST(Bottleneck, TiesGoToTheLowerPipe) {
  PipeScheduler s;
  s.issue(Pipe::kMteOut, 7);
  s.issue(Pipe::kScu, 7);
  s.issue(Pipe::kVector, 3);
  EXPECT_STREQ(attribute_cores({&s}).bottleneck(), "SCU");
}

TEST(Bottleneck, ReadsTheCriticalCore) {
  PipeScheduler early, late;
  early.issue(Pipe::kVector, 10);
  late.issue(Pipe::kMteIn, 8);
  late.issue(Pipe::kVector, 4);
  const DeviceAttribution a = attribute_cores({&early, &late});
  ASSERT_EQ(a.critical_core, 1);
  EXPECT_STREQ(a.bottleneck(), "MTE-in");
}

TEST(Bottleneck, NoCoresGivesNone) {
  EXPECT_STREQ(attribute_cores({}).bottleneck(), "none");
}

// The paper's mechanism on the InceptionV3 shape (Section V): direct
// pooling issues its reduction on 16 of 128 lanes and is bound by Vector
// issue; Im2col moves that work onto the SCU's Im2Col load.
TEST(Bottleneck, DirectIsVectorBoundAndIm2colScuBound) {
  Device dev;
  const TensorF16 in = inception_input();
  const auto verdict = [&](akg::PoolImpl impl) {
    return std::string(
        kernels::run_pool(dev,
                          PoolOp{.kind = PoolOpKind::kMaxFwd,
                                 .window = Window2d::pool(3, 2),
                                 .fwd = impl},
                          PoolInputs{.in = &in})
            .run.attribution.bottleneck());
  };
  EXPECT_EQ(verdict(akg::PoolImpl::kDirect), "Vector");
  EXPECT_EQ(verdict(akg::PoolImpl::kIm2col), "SCU");
}

TEST(TrafficCounters, ScuChargesIm2colBytes) {
  Device dev;
  const TensorF16 in = inception_input();
  auto direct = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = Window2d::pool(3, 2),
             .fwd = akg::PoolImpl::kDirect},
      PoolInputs{.in = &in});
  auto im2col = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = Window2d::pool(3, 2),
             .fwd = akg::PoolImpl::kIm2col},
      PoolInputs{.in = &in});
  const MemTraffic& d = direct.run.aggregate.traffic;
  const MemTraffic& i = im2col.run.aggregate.traffic;
  EXPECT_EQ(d.im2col_bytes, 0);
  EXPECT_GT(i.im2col_bytes, 0);
  // Both lowerings move the same GM footprint, and every GM byte crosses
  // an MTE route.
  EXPECT_GT(d.gm_total(), 0);
  EXPECT_EQ(d.gm_total(), i.gm_total());
  EXPECT_GE(d.mte_total(), d.gm_total());
}

TEST(MetricsJson, RoundTripsWithInvariantsIntact) {
  Device dev;
  const TensorF16 in = inception_input();
  const Window2d w = Window2d::pool(3, 2);
  auto direct = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
             .fwd = akg::PoolImpl::kDirect},
      PoolInputs{.in = &in});
  auto im2col = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
             .fwd = akg::PoolImpl::kIm2col},
      PoolInputs{.in = &in});

  MetricsRegistry reg;
  reg.add("direct", direct.run);
  reg.add("im2col", im2col.run);
  const json::Value doc = json::parse(reg.to_json());

  EXPECT_EQ(doc.at("schema").as_string(), "davinci.metrics");
  EXPECT_EQ(doc.at("schema_version").as_int(), MetricsRegistry::kSchemaVersion);
  const json::Array& entries = doc.at("entries").as_array();
  ASSERT_EQ(entries.size(), 2u);

  for (const json::Value& e : entries) {
    EXPECT_GT(e.at("cycles").as_int(), 0);
    EXPECT_GE(e.at("cycles_serial").as_int(), e.at("cycles").as_int());
    const json::Value& a = e.at("attribution");
    const std::int64_t horizon = a.at("horizon").as_int();
    EXPECT_EQ(horizon, e.at("cycles").as_int());
    const json::Array& cores = a.at("cores").as_array();
    ASSERT_FALSE(cores.empty());
    for (const json::Value& core : cores) {
      const json::Value& pipes = core.at("pipes");
      for (const char* pipe :
           {"MTE-in", "SCU", "Vector", "Cube", "MTE-out", "Sync"}) {
        const json::Value& b = pipes.at(pipe);
        EXPECT_EQ(b.at("busy").as_int() + b.at("wait").as_int() +
                      b.at("flag").as_int() + b.at("idle").as_int(),
                  horizon)
            << pipe;
      }
    }
    // The summary keeps exact totals even when the emitted path is
    // head-truncated at kMaxPathSegments.
    const json::Value& sum = a.at("critical_path_summary");
    EXPECT_EQ(sum.at("busy_cycles").as_int() + sum.at("stall_cycles").as_int(),
              horizon);
    EXPECT_LE(a.at("critical_path").as_array().size(),
              MetricsRegistry::kMaxPathSegments);
    EXPECT_GE(sum.at("segments").as_int(), sum.at("emitted").as_int());
    // The bottleneck is the critical core's busiest execution unit.
    const json::Value& crit =
        cores.at(static_cast<std::size_t>(a.at("critical_core").as_int()))
            .at("pipes");
    const std::int64_t verdict_busy =
        crit.at(e.at("bottleneck").as_string()).at("busy").as_int();
    for (const char* pipe : {"MTE-in", "SCU", "Vector", "Cube", "MTE-out"}) {
      EXPECT_GE(verdict_busy, crit.at(pipe).at("busy").as_int()) << pipe;
    }
  }
}

// Schema v4 host-phase buckets: every kernel driver stamps where its host
// time went, and the four buckets partition host_ns exactly -- both on
// the RunResult itself and in the serialized metrics entry.
TEST(MetricsJson, HostPhaseBucketsPartitionHostNs) {
  Device dev;
  const TensorF16 in = inception_input();
  const Window2d w = Window2d::pool(3, 2);
  auto r = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
             .fwd = akg::PoolImpl::kIm2col},
      PoolInputs{.in = &in});

  EXPECT_GE(r.run.host_alloc_ns, 0);
  EXPECT_GE(r.run.host_plan_ns, 0);
  EXPECT_GE(r.run.host_validate_ns, 0);
  EXPECT_GT(r.run.host_execute_ns, 0);
  EXPECT_EQ(r.run.host_alloc_ns + r.run.host_plan_ns +
                r.run.host_validate_ns + r.run.host_execute_ns,
            r.run.host_ns);

  MetricsRegistry reg;
  reg.add("im2col", r.run);
  const json::Value doc = json::parse(reg.to_json());
  const json::Value& e = doc.at("entries").as_array().at(0);
  EXPECT_EQ(e.at("host_alloc_ns").as_int() + e.at("host_plan_ns").as_int() +
                e.at("host_validate_ns").as_int() +
                e.at("host_execute_ns").as_int(),
            e.at("host_ns").as_int());
}

}  // namespace
}  // namespace davinci
