// Fault injection and resilient execution (sim/fault.h, Device::run under
// a resilience policy): deterministic replay, quarantine with
// redistribution, retry budgets, verification by redundant execution, and
// the zero-cost guarantee of an empty plan.
#include "sim/fault.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "kernels/pooling.h"
#include "nets/pipeline.h"
#include "ref/pooling_ref.h"
#include "sim/device.h"
#include "tensor/fractal.h"

namespace davinci {
namespace {

using kernels::PoolInputs;
using kernels::PoolOp;
using kernels::PoolOpKind;

TensorF16 make_input(std::int64_t h, std::int64_t w, std::int64_t c,
                     int seed = 1) {
  TensorF16 in(Shape{1, c1_of(c), h, w, kC0});
  in.fill_random_ints(seed);
  return in;
}

void expect_bits_equal(const TensorF16& a, const TensorF16& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::int64_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a.flat(i) == b.flat(i)) << "element " << i << " differs";
  }
}

void expect_stats_equal(const FaultStats& a, const FaultStats& b) {
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.silent_injected, b.silent_injected);
  EXPECT_EQ(a.faults_detected, b.faults_detected);
  EXPECT_EQ(a.faults_absorbed, b.faults_absorbed);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.verification_runs, b.verification_runs);
  EXPECT_EQ(a.blocks_redispatched, b.blocks_redispatched);
  EXPECT_EQ(a.cores_quarantined, b.cores_quarantined);
}

// Every used core's overlapped makespan matches.
void expect_makespans_equal(const Device::RunResult& a,
                            const Device::RunResult& b) {
  const auto& ac = a.attribution.cores;
  const auto& bc = b.attribution.cores;
  ASSERT_EQ(ac.size(), bc.size());
  for (std::size_t c = 0; c < ac.size(); ++c) {
    EXPECT_EQ(ac[c].makespan, bc[c].makespan) << "core " << c;
  }
}

// --- FaultPlan spec grammar ---

TEST(FaultPlan, ParsesFullGrammar) {
  const FaultPlan plan = FaultPlan::parse(
      "core_fail@2,core_fail@7@5,bitflip:ub:1e-6,bitflip:l1:0.5,"
      "bitflip:l0:0.25,mte_drop:0.125,scu_err:0.0625,vec_fault:0.03125",
      /*seed=*/9);
  EXPECT_EQ(plan.seed, 9u);
  ASSERT_EQ(plan.core_failures.size(), 2u);
  EXPECT_EQ(plan.core_failures[0].core, 2);
  EXPECT_EQ(plan.core_failures[0].from_block, 0);
  EXPECT_EQ(plan.core_failures[1].core, 7);
  EXPECT_EQ(plan.core_failures[1].from_block, 5);
  EXPECT_DOUBLE_EQ(plan.rate[static_cast<int>(FaultSite::kBitflipUb)], 1e-6);
  EXPECT_DOUBLE_EQ(plan.rate[static_cast<int>(FaultSite::kBitflipL1)], 0.5);
  EXPECT_DOUBLE_EQ(plan.rate[static_cast<int>(FaultSite::kBitflipL0)], 0.25);
  EXPECT_DOUBLE_EQ(plan.rate[static_cast<int>(FaultSite::kMteDrop)], 0.125);
  EXPECT_DOUBLE_EQ(plan.rate[static_cast<int>(FaultSite::kScuFractal)],
                   0.0625);
  EXPECT_DOUBLE_EQ(plan.rate[static_cast<int>(FaultSite::kVecTransient)],
                   0.03125);
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(plan.has_silent_sites());
}

TEST(FaultPlan, ToStringRoundTrips) {
  const FaultPlan plan =
      FaultPlan::parse("core_fail@3@2,mte_drop:0.5,vec_fault:0.25", 1);
  const FaultPlan again = FaultPlan::parse(plan.to_string(), 1);
  ASSERT_EQ(again.core_failures.size(), 1u);
  EXPECT_EQ(again.core_failures[0].core, 3);
  EXPECT_EQ(again.core_failures[0].from_block, 2);
  EXPECT_DOUBLE_EQ(again.rate[static_cast<int>(FaultSite::kMteDrop)], 0.5);
  EXPECT_DOUBLE_EQ(again.rate[static_cast<int>(FaultSite::kVecTransient)],
                   0.25);
}

TEST(FaultPlan, EmptyAndSilentClassification) {
  EXPECT_TRUE(FaultPlan{}.empty());
  EXPECT_FALSE(FaultPlan{}.has_silent_sites());
  const FaultPlan vec_only = FaultPlan::parse("vec_fault:0.5", 0);
  EXPECT_FALSE(vec_only.empty());
  EXPECT_FALSE(vec_only.has_silent_sites());  // detected, not silent
  const FaultPlan core_only = FaultPlan::parse("core_fail@0", 0);
  EXPECT_FALSE(core_only.empty());
  EXPECT_FALSE(core_only.has_silent_sites());
  EXPECT_TRUE(FaultPlan::parse("", 0).empty());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("bitflip:xx:1", 0), Error);
  EXPECT_THROW(FaultPlan::parse("core_fail@", 0), Error);
  EXPECT_THROW(FaultPlan::parse("core_fail@-1", 0), Error);
  EXPECT_THROW(FaultPlan::parse("mte_drop:abc", 0), Error);
  EXPECT_THROW(FaultPlan::parse("mte_drop:-0.5", 0), Error);
  EXPECT_THROW(FaultPlan::parse("vec_fault:", 0), Error);
  EXPECT_THROW(FaultPlan::parse("frobnicate:1", 0), Error);
  EXPECT_THROW(FaultPlan::parse("bitflip:ub:1e-6,oops", 0), Error);
}

// --- Zero-cost guarantee ---

TEST(Resilience, EmptyPlanMatchesPlainRunExactly) {
  const TensorF16 in = make_input(32, 32, 192);
  const Window2d w = Window2d::pool(3, 2);

  Device plain;
  auto base = kernels::run_pool(
      plain,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
             .fwd = akg::PoolImpl::kIm2col},
      PoolInputs{.in = &in});

  Device resilient;
  resilient.set_resilience(ResilienceOptions{});  // empty plan, no verify
  auto r = kernels::run_pool(
      resilient,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
             .fwd = akg::PoolImpl::kIm2col},
      PoolInputs{.in = &in});

  expect_bits_equal(base.out, r.out);
  EXPECT_EQ(base.run.device_cycles, r.run.device_cycles);
  EXPECT_EQ(base.run.device_cycles_serial, r.run.device_cycles_serial);
  expect_makespans_equal(base.run, r.run);
  expect_stats_equal(r.run.faults, FaultStats{});
}

TEST(Resilience, ZeroBlocksIsANoOp) {
  Device dev;
  ResilienceOptions opts;
  opts.plan = FaultPlan::parse("core_fail@0", 7);
  dev.set_resilience(opts);
  auto r = dev.run(0, [](AiCore&, std::int64_t) {});
  EXPECT_EQ(r.cores_used, 0);
  EXPECT_EQ(r.device_cycles, 0);
}

// --- Deterministic replay ---

TEST(Resilience, SameSeedAndPlanReplaysIdentically) {
  const TensorF16 in = make_input(32, 32, 192);
  const Window2d w = Window2d::pool(3, 2);
  ResilienceOptions opts;
  opts.plan = FaultPlan::parse("bitflip:ub:2e-5,vec_fault:2e-4", 42);
  opts.max_retries = 8;
  opts.verify = true;

  auto run_once = [&]() {
    Device dev;
    dev.set_resilience(opts);
    return kernels::run_pool(
        dev,
        PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
               .fwd = akg::PoolImpl::kDirect},
        PoolInputs{.in = &in});
  };
  auto a = run_once();
  auto b = run_once();

  expect_bits_equal(a.out, b.out);
  expect_stats_equal(a.run.faults, b.run.faults);
  EXPECT_EQ(a.run.device_cycles, b.run.device_cycles);
  // And the verified output is the correct one.
  expect_bits_equal(a.out, ref::maxpool_fwd(in, w));
}

TEST(Resilience, DifferentSeedsDrawDifferentFaults) {
  const TensorF16 in = make_input(32, 32, 192);
  const Window2d w = Window2d::pool(3, 2);
  auto faults_with_seed = [&](std::uint64_t seed) {
    Device dev;
    ResilienceOptions opts;
    opts.plan = FaultPlan::parse("bitflip:ub:5e-5", seed);
    opts.max_retries = 8;
    opts.verify = true;
    dev.set_resilience(opts);
    auto r = kernels::run_pool(
        dev,
        PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
               .fwd = akg::PoolImpl::kDirect},
        PoolInputs{.in = &in});
    expect_bits_equal(r.out, ref::maxpool_fwd(in, w));
    return r.run.faults;
  };
  const FaultStats a = faults_with_seed(1);
  const FaultStats b = faults_with_seed(2);
  // Both runs draw from the same rates, so the totals are close but the
  // streams differ; at these rates the injected counts differing is the
  // overwhelmingly likely (and, with fixed seeds, deterministic) outcome.
  EXPECT_GE(a.faults_injected + b.faults_injected, 1);
  EXPECT_NE(a.faults_injected * 1000000 + a.faults_detected,
            b.faults_injected * 1000000 + b.faults_detected);
}

// --- Quarantine and redistribution ---

TEST(Resilience, QuarantineRedistributesAndStaysBitExact) {
  const TensorF16 in = make_input(32, 32, 192);  // 12 blocks (C1 = 12)
  const Window2d w = Window2d::pool(3, 2);

  Device plain;
  auto base = kernels::run_pool(
      plain,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
             .fwd = akg::PoolImpl::kIm2col},
      PoolInputs{.in = &in});

  Device dev;
  ResilienceOptions opts;
  opts.plan = FaultPlan::parse("core_fail@1", 0);
  dev.set_resilience(opts);
  auto r = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
             .fwd = akg::PoolImpl::kIm2col},
      PoolInputs{.in = &in});

  expect_bits_equal(r.out, ref::maxpool_fwd(in, w));
  EXPECT_EQ(r.run.faults.cores_quarantined, 1);
  EXPECT_GE(r.run.faults.blocks_redispatched, 1);
  EXPECT_EQ(r.run.faults.faults_detected, 1);
  // The survivor that absorbs core 1's blocks runs twice the work, so the
  // device-level (max over cores) time honestly increases.
  EXPECT_GT(r.run.device_cycles, base.run.device_cycles);
}

TEST(Resilience, SerialAndParallelAgreeUnderQuarantine) {
  const TensorF16 in = make_input(32, 32, 128);
  const Window2d w = Window2d::pool(2, 2);
  auto run_mode = [&](bool parallel) {
    Device dev;
    ResilienceOptions opts;
    opts.plan = FaultPlan::parse("core_fail@3", 5);
    dev.set_resilience(opts);
    dev.set_parallel(parallel);
    return kernels::run_pool(
        dev,
        PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
               .fwd = akg::PoolImpl::kDirect},
        PoolInputs{.in = &in});
  };
  auto par = run_mode(true);
  auto ser = run_mode(false);
  expect_bits_equal(par.out, ser.out);
  expect_stats_equal(par.run.faults, ser.run.faults);
}

TEST(Resilience, MidRunQuarantineRefillsDrainedLanes) {
  // 96 blocks on 32 cores: core c owns blocks c, c + 32 and c + 64.
  // core_fail@31@40 lets core 31 finish block 31 and kills it at block 63,
  // so blocks 63 and 95 go round-robin to cores 0 and 1 -- lanes dealt
  // first, which have drained their own queues by then (always in the
  // serial run). A further scheduling round must run them, in both modes
  // with identical results.
  TensorF16 in(Shape{4, 24, 12, 12, kC0});
  in.fill_random_ints(404);
  const Window2d w = Window2d::pool(3, 2);
  struct ModeRun {
    kernels::PoolResult pool;
    Device::RunResult raw;
    std::vector<int> runs = std::vector<int>(96, 0);
    std::vector<int> ran_on = std::vector<int>(96, -1);
  };
  auto run_mode = [&](bool parallel) {
    Device dev;
    ResilienceOptions opts;
    opts.plan = FaultPlan::parse("core_fail@31@40", 3);
    dev.set_resilience(opts);
    dev.set_parallel(parallel);
    ModeRun m;
    m.pool = kernels::run_pool(
        dev,
        PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
               .fwd = akg::PoolImpl::kIm2col},
        PoolInputs{.in = &in});
    m.raw = dev.run(96, [&](AiCore& core, std::int64_t b) {
      const std::int64_t n = 128 * (1 + b % 3);  // uneven lanes
      auto a = core.ub().alloc<Float16>(n);
      core.vdup_flat(a, Float16(1.0f), n);
      m.runs[static_cast<std::size_t>(b)] += 1;
      m.ran_on[static_cast<std::size_t>(b)] = core.id();
    });
    return m;
  };
  const ModeRun par = run_mode(true);
  const ModeRun ser = run_mode(false);
  const TensorF16 want = ref::maxpool_fwd(in, w);
  for (const ModeRun* m : {&par, &ser}) {
    expect_bits_equal(m->pool.out, want);
    for (const Device::RunResult* r : {&m->pool.run, &m->raw}) {
      EXPECT_EQ(r->faults.cores_quarantined, 1);
      EXPECT_EQ(r->faults.blocks_redispatched, 2);
    }
    for (int runs : m->runs) EXPECT_EQ(runs, 1);
    EXPECT_EQ(m->ran_on[63], 0);
    EXPECT_EQ(m->ran_on[95], 1);
  }
  expect_stats_equal(par.pool.run.faults, ser.pool.run.faults);
  expect_stats_equal(par.raw.faults, ser.raw.faults);
  expect_makespans_equal(par.pool.run, ser.pool.run);
  expect_makespans_equal(par.raw, ser.raw);
}

TEST(Resilience, DelayedTriggerQuarantinesMidRun) {
  // core_fail@0@2: core 0 completes blocks 0 (its first) but dies when a
  // block index >= 2 lands on it.
  Device dev(ArchConfig::ascend310());  // 2 cores
  ResilienceOptions opts;
  opts.plan = FaultPlan::parse("core_fail@0@2", 0);
  dev.set_resilience(opts);
  dev.set_parallel(false);
  std::vector<int> done(6, 0);
  auto r = dev.run(6, [&](AiCore& core, std::int64_t b) {
    auto a = core.ub().alloc<Float16>(64);
    core.vdup_flat(a, Float16(1.0f), 64);
    done[static_cast<std::size_t>(b)] += 1;
  });
  for (int d : done) EXPECT_EQ(d, 1);
  EXPECT_EQ(r.faults.cores_quarantined, 1);
  EXPECT_GE(r.faults.blocks_redispatched, 1);
}

TEST(Resilience, AllCoresQuarantinedFailsCleanly) {
  Device dev(ArchConfig::ascend310());  // 2 cores
  ResilienceOptions opts;
  opts.plan = FaultPlan::parse("core_fail@0,core_fail@1", 0);
  dev.set_resilience(opts);
  dev.set_parallel(false);
  EXPECT_THROW(dev.run(4,
                       [](AiCore& core, std::int64_t) {
                         auto a = core.ub().alloc<Float16>(64);
                         core.vdup_flat(a, Float16(1.0f), 64);
                       }),
               RetryExhausted);
}

// --- Retry budget ---

TEST(Resilience, RetryBudgetExhaustionFailsCleanly) {
  const TensorF16 in = make_input(16, 16, 32);
  const Window2d w = Window2d::pool(2, 2);
  Device dev;
  ResilienceOptions opts;
  opts.plan = FaultPlan::parse("vec_fault:1", 0);  // every instruction faults
  opts.max_retries = 0;
  dev.set_resilience(opts);
  EXPECT_THROW(
      kernels::run_pool(dev,
                        PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
                               .fwd = akg::PoolImpl::kDirect},
                        PoolInputs{.in = &in}),
      RetryExhausted);
}

TEST(Resilience, ExhaustionMessageCarriesContext) {
  Device dev;
  ResilienceOptions opts;
  opts.plan = FaultPlan::parse("vec_fault:1", 0);
  opts.max_retries = 2;
  dev.set_resilience(opts);
  try {
    dev.run(4, [](AiCore& core, std::int64_t) {
      auto a = core.ub().alloc<Float16>(64);
      core.vdup_flat(a, Float16(1.0f), 64);
    });
    FAIL() << "expected RetryExhausted";
  } catch (const RetryExhausted& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("retry budget exhausted"), std::string::npos) << msg;
    EXPECT_NE(msg.find("max_retries=2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("fault stats:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("vec_fault"), std::string::npos) << msg;
  }
}

TEST(Resilience, TransientFaultsAreRetriedToCompletion) {
  const TensorF16 in = make_input(32, 32, 192);
  const Window2d w = Window2d::pool(3, 2);
  Device dev;
  ResilienceOptions opts;
  opts.plan = FaultPlan::parse("vec_fault:5e-4", 3);
  opts.max_retries = 8;
  dev.set_resilience(opts);
  auto r = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
             .fwd = akg::PoolImpl::kDirect},
      PoolInputs{.in = &in});
  expect_bits_equal(r.out, ref::maxpool_fwd(in, w));
  EXPECT_GE(r.run.faults.faults_detected, 1);
  EXPECT_GE(r.run.faults.retries, 1);
}

// --- Verification (redundant execution) ---

TEST(Resilience, MteDropsAreCaughtByVerification) {
  const TensorF16 in = make_input(32, 32, 192);
  const Window2d w = Window2d::pool(3, 2);
  Device dev;
  ResilienceOptions opts;
  opts.plan = FaultPlan::parse("mte_drop:0.2", 11);
  opts.max_retries = 8;
  opts.verify = true;
  dev.set_resilience(opts);
  auto r = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
             .fwd = akg::PoolImpl::kDirect},
      PoolInputs{.in = &in});
  expect_bits_equal(r.out, ref::maxpool_fwd(in, w));
  EXPECT_GE(r.run.faults.silent_injected, 1);
  // Every block ran at least one redundant verification execution.
  EXPECT_GE(r.run.faults.verification_runs, 12);
}

TEST(Resilience, BitflipsAreCaughtByVerification) {
  const TensorF16 in = make_input(32, 32, 192);
  const Window2d w = Window2d::pool(3, 2);
  Device dev;
  ResilienceOptions opts;
  opts.plan = FaultPlan::parse("bitflip:ub:5e-5", 17);
  opts.max_retries = 8;
  opts.verify = true;
  dev.set_resilience(opts);
  auto r = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = w,
             .fwd = akg::PoolImpl::kDirect},
      PoolInputs{.in = &in});
  expect_bits_equal(r.out, ref::maxpool_fwd(in, w));
  EXPECT_GE(r.run.faults.silent_injected, 1);
}

// --- Pipeline integration ---

TEST(Resilience, PipelineRunResilientSurvivesCoreFailure) {
  const TensorF16 in = make_input(32, 32, 128);
  nets::Pipeline p;
  p.maxpool(Window2d::pool(2, 2)).avgpool(Window2d::pool(2, 2));

  Device plain;
  auto base = p.run(plain, in, nets::PoolingStack::kAccelerated);

  Device dev;
  ResilienceOptions opts;
  opts.plan = FaultPlan::parse("core_fail@2", 0);
  auto r = p.run_resilient(dev, in, nets::PoolingStack::kAccelerated, opts);

  expect_bits_equal(r.out, base.out);
  // The core fails again in every layer's run (fresh fault state per
  // kernel launch), so each of the two layers quarantines it once.
  EXPECT_EQ(r.faults.cores_quarantined, 2);
  // The policy is removed from the device afterwards.
  EXPECT_FALSE(dev.resilience().has_value());
}

// --- Aggregated worker errors without a policy ---

TEST(Device, RunAggregatesAllWorkerFailures) {
  Device dev;
  try {
    dev.run(40, [](AiCore&, std::int64_t b) {
      if (b == 5) throw Error("boom at block five");
      if (b == 17) throw Error("boom at block seventeen");
    });
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("2 core(s) failed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("core 5 at block 5"), std::string::npos) << msg;
    EXPECT_NE(msg.find("core 17 at block 17"), std::string::npos) << msg;
    EXPECT_NE(msg.find("boom at block five"), std::string::npos) << msg;
    EXPECT_NE(msg.find("boom at block seventeen"), std::string::npos) << msg;
  }
}

TEST(Device, SerialRunKeepsRawExceptionType) {
  Device dev;
  dev.set_parallel(false);
  EXPECT_THROW(dev.run(4,
                       [](AiCore&, std::int64_t b) {
                         if (b == 2) throw TransientFault("raw");
                       }),
               TransientFault);
}

}  // namespace
}  // namespace davinci
